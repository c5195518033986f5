// Package vecir implements the VECTOR IR: tensors are lowered onto
// one-dimensional slot vectors using the multiplexed packed layout of
// Lee et al. [35] (channels distributed over blocks and stride phases of
// a fixed base grid), and the NN operators become rotate/multiply/add
// programs. A linear layer (convolution, pooling, Gemm) is a set of
// diagonals folded onto a period P under which its output slots are
// distinct: one mask per total slot offset mod P, evaluated baby-step/
// giant-step, then log₂(L/P) rotate-and-adds that land every output on
// all its replicas (slots congruent to it mod P). P and the split are
// derived from the offset set per layer (foldSplit) — the rotation
// sharing the paper credits for its Conv speedups. A non-output slot of
// a layer's result holds an exact replica of an output or 0, never a
// partial sum that a ReLU polynomial or a bootstrap could take out of
// range. The unfolded split's M = L point, one rotation per diagonal,
// is kept as ConvNaive for the ablation and autotune baselines.
package vecir

import (
	"fmt"
)

// Layout describes how a (C,H,W) tensor is packed into a slot vector of
// length L: the spatial base grid is H0 x W0 (constant across the whole
// network); a tensor downsampled by (Sy,Sx) stores its H=H0/Sy rows at
// stride Sy. Channels are assigned phase c mod (Sy*Sx) within the stride
// grid and block c/(Sy*Sx), each block occupying H0*W0 slots.
//
// Gain records a pending scalar factor: the vector holds Gain * (true
// value); linear consumers fold 1/Gain into their weights (global
// average pooling uses this to defer its division).
type Layout struct {
	C, H, W int
	H0, W0  int
	Sy, Sx  int
	L       int
	Gain    float64
}

// NewInputLayout builds the layout of the network input: channels in
// consecutive blocks at full resolution.
func NewInputLayout(c, h, w, l int) (*Layout, error) {
	if h&(h-1) != 0 || w&(w-1) != 0 {
		return nil, fmt.Errorf("vecir: spatial dims %dx%d must be powers of two", h, w)
	}
	lay := &Layout{C: c, H: h, W: w, H0: h, W0: w, Sy: 1, Sx: 1, L: l, Gain: 1}
	if need := lay.Blocks() * h * w; need > l {
		return nil, fmt.Errorf("vecir: layout needs %d slots, vector has %d", need, l)
	}
	return lay, nil
}

// P returns the phase count Sy*Sx.
func (l *Layout) P() int { return l.Sy * l.Sx }

// Blocks returns the number of base-grid blocks used.
func (l *Layout) Blocks() int { return (l.C + l.P() - 1) / l.P() }

// phase decomposes a channel into (block, py, px).
func (l *Layout) phase(c int) (block, py, px int) {
	p := l.P()
	block = c / p
	ph := c % p
	return block, ph / l.Sx, ph % l.Sx
}

// Slot returns the slot index of element (c, y, x).
func (l *Layout) Slot(c, y, x int) int {
	b, py, px := l.phase(c)
	return b*l.H0*l.W0 + (y*l.Sy+py)*l.W0 + x*l.Sx + px
}

// offset returns the algebraic slot displacement from (co under lo) to
// (ci at spatial offset (dy,dx) under li), reduced mod L. It is
// independent of the output position.
func offset(li *Layout, ci, dy, dx int, lo *Layout, co int) int {
	bi, pyi, pxi := li.phase(ci)
	bo, pyo, pxo := lo.phase(co)
	r := (bi-bo)*li.H0*li.W0 + (dy*li.Sy+pyi-pyo)*li.W0 + dx*li.Sx + pxi - pxo
	r %= li.L
	if r < 0 {
		r += li.L
	}
	return r
}

// Downsample returns the layout after a stride-s spatial reduction with
// cOut channels (phases multiply by s in each axis).
func (l *Layout) Downsample(s, cOut int) (*Layout, error) {
	if l.H%s != 0 || l.W%s != 0 {
		return nil, fmt.Errorf("vecir: stride %d does not divide %dx%d", s, l.H, l.W)
	}
	out := &Layout{
		C: cOut, H: l.H / s, W: l.W / s,
		H0: l.H0, W0: l.W0,
		Sy: l.Sy * s, Sx: l.Sx * s,
		L: l.L, Gain: l.Gain,
	}
	if need := out.Blocks() * l.H0 * l.W0; need > l.L {
		return nil, fmt.Errorf("vecir: downsampled layout needs %d slots, vector has %d", need, l.L)
	}
	return out, nil
}

// WithChannels returns a copy with a different channel count (stride-1
// convolutions changing width).
func (l *Layout) WithChannels(c int) (*Layout, error) {
	out := *l
	out.C = c
	if need := out.Blocks() * l.H0 * l.W0; need > l.L {
		return nil, fmt.Errorf("vecir: layout with %d channels needs %d slots, vector has %d", c, need, l.L)
	}
	return &out, nil
}

// Equal reports structural layout equality (Gain included: additions
// require it).
func (l *Layout) Equal(o *Layout) bool {
	return l.C == o.C && l.H == o.H && l.W == o.W && l.H0 == o.H0 &&
		l.W0 == o.W0 && l.Sy == o.Sy && l.Sx == o.Sx && l.L == o.L && l.Gain == o.Gain
}

func (l *Layout) String() string {
	return fmt.Sprintf("layout{C:%d %dx%d grid:%dx%d stride:%dx%d L:%d gain:%g}", l.C, l.H, l.W, l.H0, l.W0, l.Sy, l.Sx, l.L, l.Gain)
}

// Pack places a (C,H,W) tensor (flattened row-major) into a fresh slot
// vector according to the layout. This is the ANT-ACE-generated
// encryptor's packing step.
func (l *Layout) Pack(data []float64) ([]float64, error) {
	if len(data) != l.C*l.H*l.W {
		return nil, fmt.Errorf("vecir: pack: %d values for %s", len(data), l)
	}
	out := make([]float64, l.L)
	for c := 0; c < l.C; c++ {
		for y := 0; y < l.H; y++ {
			for x := 0; x < l.W; x++ {
				out[l.Slot(c, y, x)] = data[(c*l.H+y)*l.W+x] * l.Gain
			}
		}
	}
	return out, nil
}

// Unpack extracts the logical tensor values from a slot vector (the
// decryptor's unpacking step), dividing out the pending gain.
func (l *Layout) Unpack(v []float64) ([]float64, error) {
	if len(v) != l.L {
		return nil, fmt.Errorf("vecir: unpack: vector length %d, layout wants %d", len(v), l.L)
	}
	out := make([]float64, l.C*l.H*l.W)
	for c := 0; c < l.C; c++ {
		for y := 0; y < l.H; y++ {
			for x := 0; x < l.W; x++ {
				out[(c*l.H+y)*l.W+x] = v[l.Slot(c, y, x)] / l.Gain
			}
		}
	}
	return out, nil
}
