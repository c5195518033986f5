package ckksir

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"antace/internal/ir"
	"antace/internal/vecir"
)

// artifactVersion is the format MarshalBinary writes; UnmarshalBinary
// refuses any other. Version 1 had no packing layouts; version 2 planned
// its segments down to level 0 for a bootstrap that ran SlotsToCoeffs
// last, which today's bootstrap cannot run.
const artifactVersion = 3

// artifact is the compiled program as MarshalBinary writes it: the
// Result itself with its module left out, and the module's main function
// as an ir.Table. The Result travels whole, so a field added to it, to
// the parameter literal or to the bootstrap parameters reaches a decoded
// program without an edit here. Of the module's attributes only the
// packing layouts travel, so that a client of the decoded program can
// pack a tensor into the input vector and unpack the outputs.
type artifact struct {
	Version int
	Module  string // the module's name
	Header  header // Module is nil
	Main    *ir.Table
	// In and Out are the module's vec.in_layout and vec.out_layout.
	In, Out *vecir.Layout
}

// header is Result without its methods, so gob encodes its fields
// rather than calling back into MarshalBinary.
type header Result

// MarshalBinary encodes the compiled program, parameters and bulky
// constants (the encoded masks and weights) included, as one artifact
// that UnmarshalBinary turns back into an equal Result. The encoding is
// deterministic: equal programs give equal bytes.
func (r *Result) MarshalBinary() ([]byte, error) {
	f := r.Module.Main()
	if f == nil {
		return nil, fmt.Errorf("ckksir: module %s has no function", r.Module.Name)
	}
	t, err := ir.Flatten(f)
	if err != nil {
		return nil, fmt.Errorf("ckksir: %w", err)
	}
	in, out, err := vecir.Layouts(r.Module)
	if err != nil {
		return nil, fmt.Errorf("ckksir: %w", err)
	}
	h := *r
	h.Module = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifact{Version: artifactVersion, Module: r.Module.Name, Header: header(h), Main: t, In: in, Out: out}); err != nil {
		return nil, fmt.Errorf("ckksir: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes an artifact MarshalBinary wrote, the packing
// layouts restored as module attributes. It refuses any other format
// version, an artifact without layouts, any index out of bounds, any op
// outside the CKKS dialect, a function that fails ir.VerifyFunc, and one
// whose ir.Fingerprint is not the recorded one.
func (r *Result) UnmarshalBinary(data []byte) error {
	var a artifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&a); err != nil {
		return fmt.Errorf("ckksir: decoding artifact: %w", err)
	}
	if a.Version != artifactVersion {
		return fmt.Errorf("ckksir: artifact version %d, want %d: recompile the model", a.Version, artifactVersion)
	}
	if a.Header.Module != nil || a.Main == nil || a.In == nil || a.Out == nil {
		return fmt.Errorf("ckksir: malformed artifact")
	}
	for i, in := range a.Main.Body {
		if !strings.HasPrefix(in.Op, "ckks.") {
			return fmt.Errorf("ckksir: instr %d: %q is not a CKKS op", i, in.Op)
		}
	}
	f, err := a.Main.Build()
	if err != nil {
		return fmt.Errorf("ckksir: %w", err)
	}
	mod := ir.NewModule(a.Module)
	mod.Funcs = []*ir.Func{f}
	mod.Attrs[vecir.AttrInLayout] = a.In
	mod.Attrs[vecir.AttrOutLayout] = a.Out
	*r = Result(a.Header)
	r.Module = mod
	return nil
}
