package main

import (
	"reflect"
	"testing"
)

// drain returns which of the first n operations re-register, and the
// first inference input.
func drain(s *schedule, n int) (registers []int, first []float64) {
	for i := 1; i <= n; i++ {
		reg, in := s.next()
		if reg {
			registers = append(registers, i)
		} else if first == nil {
			first = in
		}
	}
	return registers, first
}

func TestScheduleFollowsSeed(t *testing.T) {
	regA, inA := drain(newSchedule(7, 64), 10*registerEvery)
	regB, inB := drain(newSchedule(7, 64), 10*registerEvery)
	if !reflect.DeepEqual(regA, regB) || !reflect.DeepEqual(inA, inB) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(regA) != 10 {
		t.Fatalf("%d re-registrations in %d operations, want one per %d", len(regA), 10*registerEvery, registerEvery)
	}
	for i := 1; i < len(regA); i++ {
		if regA[i]-regA[i-1] != registerEvery {
			t.Fatalf("re-registrations at %v are not %d apart", regA, registerEvery)
		}
	}
	if len(inA) != 64 {
		t.Fatalf("input has %d features", len(inA))
	}
	for _, v := range inA {
		if v < -1 || v >= 1 {
			t.Fatalf("input value %g outside [-1, 1)", v)
		}
	}
	if _, otherSeed := drain(newSchedule(8, 64), registerEvery); reflect.DeepEqual(inA, otherSeed) {
		t.Error("inputs do not depend on the seed")
	}
}
