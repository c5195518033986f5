package ir

import "fmt"

// Values maps the values of one function to T: a slice indexed by
// Value.ID, the side table a pass keeps per value instead of a
// map[*Value]T. IDs are dense per function (1..Func.NumValues), so the
// slice is as long as the function has values; a value made after the
// table grows it on Set. Every access checks that the value belongs to
// the table's function and panics if not: a value of another function
// carries an ID of its own numbering, and would otherwise alias one of
// this function's entries.
type Values[T any] struct {
	f     *Func
	slots []valueSlot[T]
}

type valueSlot[T any] struct {
	x   T
	set bool
}

// NewValues makes an empty table over f's values.
func NewValues[T any](f *Func) Values[T] {
	return Values[T]{f: f, slots: make([]valueSlot[T], f.nextID+1)}
}

func (t *Values[T]) check(v *Value) {
	if v.fn != t.f {
		panic(fmt.Sprintf("ir: value %s of %s looked up in a table of %s", v, v.fn.name(), t.f.name()))
	}
}

// Set records x for v.
func (t *Values[T]) Set(v *Value, x T) {
	t.check(v)
	if v.ID >= len(t.slots) {
		t.slots = append(t.slots, make([]valueSlot[T], v.ID+1-len(t.slots))...)
	}
	t.slots[v.ID] = valueSlot[T]{x, true}
}

// Lookup returns what was recorded for v, and whether anything was; a
// nil v has nothing recorded.
func (t *Values[T]) Lookup(v *Value) (T, bool) {
	if v != nil {
		t.check(v)
		if v.ID < len(t.slots) {
			s := t.slots[v.ID]
			return s.x, s.set
		}
	}
	var zero T
	return zero, false
}

// Get returns what was recorded for v, or T's zero value.
func (t *Values[T]) Get(v *Value) T {
	x, _ := t.Lookup(v)
	return x
}

// Has reports whether anything was recorded for v.
func (t *Values[T]) Has(v *Value) bool {
	_, ok := t.Lookup(v)
	return ok
}

// Uses counts the uses of every value of f: one per argument position
// that reads it, and one if f returns it.
func Uses(f *Func) Values[int] {
	uses := NewValues[int](f)
	use := func(v *Value) {
		uses.check(v)
		s := &uses.slots[v.ID]
		s.x, s.set = s.x+1, true
	}
	for _, in := range f.Body {
		for _, a := range in.Args {
			use(a)
		}
	}
	if f.Ret != nil {
		use(f.Ret)
	}
	return uses
}
