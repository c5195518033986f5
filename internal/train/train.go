// Package train implements a small pure-Go SGD trainer (hand-derived
// backpropagation) for the compact CNN of the accuracy experiments:
// conv3x3 → ReLU → avgpool2 → conv3x3 → ReLU → global average pool → FC,
// with cross-entropy loss. Trained weights feed onnx.BuildSmallCNN, so
// Table 11 measures a genuinely trained model rather than random
// weights.
package train

import (
	"fmt"
	"math"
	"math/rand/v2"

	"antace/internal/dataset"
	"antace/internal/tensor"
)

// Config describes the model and optimisation.
type Config struct {
	InputSize       int
	InputChannels   int
	Channels        int // first conv width; second conv uses 2x
	Classes         int
	LearningRate    float64
	Epochs          int
	BatchesPerEpoch int
	BatchSize       int
	Seed            uint64
}

func (c Config) withDefaults() Config {
	if c.InputSize == 0 {
		c.InputSize = 8
	}
	if c.InputChannels == 0 {
		c.InputChannels = 1
	}
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.Classes == 0 {
		c.Classes = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.BatchesPerEpoch == 0 {
		c.BatchesPerEpoch = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Seed == 0 {
		c.Seed = 3
	}
	return c
}

// Model holds the learnable parameters.
type Model struct {
	cfg Config
	// conv1: (C1, Cin, 3, 3) + bias; conv2: (C2, C1, 3, 3) + bias;
	// fc: (K, C2) + bias.
	W1, B1, W2, B2, WF, BF *tensor.Tensor
}

// NewModel initialises a model with He-style weights.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7EA1))
	c1 := cfg.Channels
	c2 := 2 * cfg.Channels
	he := func(t *tensor.Tensor, fanIn int) {
		std := math.Sqrt(2 / float64(fanIn))
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64() * std
		}
	}
	m := &Model{
		cfg: cfg,
		W1:  tensor.New(c1, cfg.InputChannels, 3, 3),
		B1:  tensor.New(c1),
		W2:  tensor.New(c2, c1, 3, 3),
		B2:  tensor.New(c2),
		WF:  tensor.New(cfg.Classes, c2),
		BF:  tensor.New(cfg.Classes),
	}
	he(m.W1, cfg.InputChannels*9)
	he(m.W2, c1*9)
	he(m.WF, c2)
	return m
}

// forwardState caches activations for backprop.
type forwardState struct {
	x, a1, r1, p1, a2, r2, g, logits *tensor.Tensor
}

// forward runs the network on one image (1,Cin,S,S).
func (m *Model) forward(x *tensor.Tensor) (*forwardState, error) {
	st := &forwardState{x: x}
	var err error
	if st.a1, err = tensor.Conv2D(x, m.W1, m.B1, 1, 1); err != nil {
		return nil, err
	}
	st.r1 = tensor.ReLU(st.a1)
	if st.p1, err = tensor.AveragePool2D(st.r1, 2, 2); err != nil {
		return nil, err
	}
	if st.a2, err = tensor.Conv2D(st.p1, m.W2, m.B2, 1, 1); err != nil {
		return nil, err
	}
	st.r2 = tensor.ReLU(st.a2)
	if st.g, err = tensor.GlobalAveragePool2D(st.r2); err != nil {
		return nil, err
	}
	flat := st.g.Flatten()
	if st.logits, err = tensor.Gemm(flat, m.WF.Transpose(), m.BF, 1, 1); err != nil {
		return nil, err
	}
	return st, nil
}

// Predict returns the argmax class for one image.
func (m *Model) Predict(x *tensor.Tensor) (int, error) {
	st, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	return tensor.ArgMax(st.logits), nil
}

// Train runs SGD on the dataset and returns the final training loss.
func (m *Model) Train(ds *dataset.Dataset) (float64, error) {
	cfg := m.cfg
	lastLoss := math.Inf(1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		totalLoss := 0.0
		count := 0
		for batch := 0; batch < cfg.BatchesPerEpoch; batch++ {
			samples := ds.Batch(cfg.BatchSize, uint64(epoch*10007+batch))
			grads := m.zeroGrads()
			for _, s := range samples {
				loss, err := m.backward(s.Image, s.Label, grads)
				if err != nil {
					return 0, err
				}
				totalLoss += loss
				count++
			}
			m.step(grads, cfg.LearningRate/float64(cfg.BatchSize))
		}
		lastLoss = totalLoss / float64(count)
	}
	return lastLoss, nil
}

// Accuracy evaluates top-1 accuracy over n held-out samples.
func (m *Model) Accuracy(ds *dataset.Dataset, n int, streamSeed uint64) (float64, error) {
	samples := ds.Batch(n, streamSeed)
	correct := 0
	for _, s := range samples {
		pred, err := m.Predict(s.Image)
		if err != nil {
			return 0, err
		}
		if pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(n), nil
}

type grads struct {
	w1, b1, w2, b2, wf, bf *tensor.Tensor
}

func (m *Model) zeroGrads() *grads {
	return &grads{
		w1: tensor.New(m.W1.Shape...), b1: tensor.New(m.B1.Shape...),
		w2: tensor.New(m.W2.Shape...), b2: tensor.New(m.B2.Shape...),
		wf: tensor.New(m.WF.Shape...), bf: tensor.New(m.BF.Shape...),
	}
}

func (m *Model) step(g *grads, lr float64) {
	apply := func(w, gw *tensor.Tensor) {
		for i := range w.Data {
			w.Data[i] -= lr * gw.Data[i]
		}
	}
	apply(m.W1, g.w1)
	apply(m.B1, g.b1)
	apply(m.W2, g.w2)
	apply(m.B2, g.b2)
	apply(m.WF, g.wf)
	apply(m.BF, g.bf)
}

// backward accumulates gradients for one sample, returning its loss.
func (m *Model) backward(x *tensor.Tensor, label int, g *grads) (float64, error) {
	st, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	probs := tensor.Softmax(st.logits)
	loss := -math.Log(math.Max(probs.Data[label], 1e-12))

	k := m.cfg.Classes
	c2 := 2 * m.cfg.Channels
	// dLogits = probs - onehot
	dLogits := make([]float64, k)
	copy(dLogits, probs.Data)
	dLogits[label]--

	// FC: logits = g*WF^T + BF, g has c2 entries.
	gvec := st.g.Data // length c2
	dG := make([]float64, c2)
	for i := 0; i < k; i++ {
		g.bf.Data[i] += dLogits[i]
		for j := 0; j < c2; j++ {
			g.wf.Data[i*c2+j] += dLogits[i] * gvec[j]
			dG[j] += dLogits[i] * m.WF.Data[i*c2+j]
		}
	}

	// Global average pool over r2 (1,c2,h,w).
	h2, w2 := st.r2.Shape[2], st.r2.Shape[3]
	inv := 1 / float64(h2*w2)
	dR2 := tensor.New(st.r2.Shape...)
	for c := 0; c < c2; c++ {
		for i := 0; i < h2*w2; i++ {
			dR2.Data[c*h2*w2+i] = dG[c] * inv
		}
	}
	// ReLU 2.
	dA2 := maskBackward(dR2, st.a2)
	// Conv 2: accumulate weight grads and input grads.
	dP1 := convBackward(st.p1, m.W2, dA2, g.w2, g.b2, 1, 1)
	// Average pool 2x2 stride 2.
	dR1 := poolBackward(dP1, st.r1.Shape)
	// ReLU 1.
	dA1 := maskBackward(dR1, st.a1)
	// Conv 1 (input gradient discarded).
	convBackward(st.x, m.W1, dA1, g.w1, g.b1, 1, 1)
	return loss, nil
}

// maskBackward zeroes gradient where the pre-activation was negative.
func maskBackward(dOut, pre *tensor.Tensor) *tensor.Tensor {
	out := dOut.Clone()
	for i, v := range pre.Data {
		if v <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// convBackward accumulates dW/dB for y = conv(x, W) + b and returns dX.
func convBackward(x, w, dY, gW, gB *tensor.Tensor, stride, pad int) *tensor.Tensor {
	cOut, cIn, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	hIn, wIn := x.Shape[2], x.Shape[3]
	hOut, wOut := dY.Shape[2], dY.Shape[3]
	dX := tensor.New(x.Shape...)
	for co := 0; co < cOut; co++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				d := dY.At(0, co, oy, ox)
				if d == 0 {
					continue
				}
				gB.Data[co] += d
				for ci := 0; ci < cIn; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= hIn {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= wIn {
								continue
							}
							gW.Data[((co*cIn+ci)*kh+ky)*kw+kx] += d * x.At(0, ci, iy, ix)
							dX.Data[((0*cIn+ci)*hIn+iy)*wIn+ix] += d * w.At(co, ci, ky, kx)
						}
					}
				}
			}
		}
	}
	return dX
}

// poolBackward distributes average-pool gradients (kernel 2, stride 2).
func poolBackward(dOut *tensor.Tensor, inShape []int) *tensor.Tensor {
	dIn := tensor.New(inShape...)
	c, hOut, wOut := dOut.Shape[1], dOut.Shape[2], dOut.Shape[3]
	wIn := inShape[3]
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < hOut; oy++ {
			for ox := 0; ox < wOut; ox++ {
				d := dOut.At(0, ci, oy, ox) / 4
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						dIn.Data[(ci*inShape[2]+(2*oy+dy))*wIn+2*ox+dx] += d
					}
				}
			}
		}
	}
	return dIn
}

// Weights exports the trained parameters under the names
// onnx.BuildSmallCNN expects.
func (m *Model) Weights() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"conv1.weight": m.W1, "conv1.bias": m.B1,
		"conv2.weight": m.W2, "conv2.bias": m.B2,
		"fc.weight": m.WF, "fc.bias": m.BF,
	}
}

// Describe returns a short model summary.
func (m *Model) Describe() string {
	return fmt.Sprintf("small-cnn(c=%d, classes=%d, input=%dx%d)", m.cfg.Channels, m.cfg.Classes, m.cfg.InputSize, m.cfg.InputSize)
}
