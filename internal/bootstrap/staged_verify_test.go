//go:build verify

package bootstrap_test

import "testing"

// TestBootstrapAtLogN13 is TestBootstrapAtLogN12 one ring size up: about
// half a gigabyte of rotation keys, so it runs under `make verify`
// (-tags verify) rather than in every `go test ./...`.
func TestBootstrapAtLogN13(t *testing.T) { refreshAtCompilerStages(t, 1<<12) }
