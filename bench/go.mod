module antace/bench

go 1.22

require antace v0.0.0

replace antace => ../
