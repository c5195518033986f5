package ckksir

// LazyRescaleOnce exposes one round of the LazyRescale pass to the
// external tests.
var LazyRescaleOnce = lazyRescaleOnce
