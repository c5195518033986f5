package bootstrap

// StageDiagonals returns the diagonal count of every stage matrix the
// bootstrapper holds, in the order Op.Stage indexes them.
func (bt *Bootstrapper) StageDiagonals() []int {
	var out []int
	for _, lt := range bt.stages() {
		out = append(out, len(lt.Diags))
	}
	return out
}
