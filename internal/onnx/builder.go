package onnx

import (
	"fmt"

	"antace/internal/tensor"
)

// Builder assembles ONNX graphs programmatically (the in-repo stand-in
// for exporting models from a training framework).
type Builder struct {
	g       *Graph
	counter int
}

// NewBuilder starts an empty graph.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}}
}

// fresh generates a unique value name.
func (b *Builder) fresh(prefix string) string {
	b.counter++
	return fmt.Sprintf("%s_%d", prefix, b.counter)
}

// Input declares a graph input.
func (b *Builder) Input(name string, shape ...int64) string {
	b.g.Inputs = append(b.g.Inputs, &ValueInfo{Name: name, ElemType: ElemFloat, Shape: shape})
	return name
}

// Output declares a graph output.
func (b *Builder) Output(name string, shape ...int64) {
	b.g.Outputs = append(b.g.Outputs, &ValueInfo{Name: name, ElemType: ElemFloat, Shape: shape})
}

// Weight registers an initializer and returns its name.
func (b *Builder) Weight(name string, t *tensor.Tensor) string {
	b.g.Initializers = append(b.g.Initializers, FromTensor(name, t))
	return name
}

// IntWeight registers an int64 initializer (shapes for Reshape etc).
func (b *Builder) IntWeight(name string, vals []int64) string {
	b.g.Initializers = append(b.g.Initializers, &TensorData{
		Name: name, DataType: ElemInt64, Dims: []int64{int64(len(vals))}, Int64s: vals,
	})
	return name
}

// Node appends a generic node with a single fresh output.
func (b *Builder) Node(opType string, inputs []string, attrs ...*Attribute) string {
	out := b.fresh(opType)
	b.g.Nodes = append(b.g.Nodes, &Node{
		Name:    b.fresh("node"),
		OpType:  opType,
		Inputs:  inputs,
		Outputs: []string{out},
		Attrs:   attrs,
	})
	return out
}

// AttrIntVal builds an integer attribute.
func AttrIntVal(name string, v int64) *Attribute {
	return &Attribute{Name: name, Type: AttrInt, I: v}
}

// AttrIntsVal builds an integer-list attribute.
func AttrIntsVal(name string, vs ...int64) *Attribute {
	return &Attribute{Name: name, Type: AttrInts, Ints: vs}
}

// AttrFloatVal builds a float attribute.
func AttrFloatVal(name string, v float64) *Attribute {
	return &Attribute{Name: name, Type: AttrFloat, F: float32(v)}
}

// Conv appends a Conv node (NCHW/OIHW, symmetric padding).
func (b *Builder) Conv(x, w, bias string, stride, pad int64) string {
	inputs := []string{x, w}
	if bias != "" {
		inputs = append(inputs, bias)
	}
	return b.Node("Conv", inputs,
		AttrIntsVal("strides", stride, stride),
		AttrIntsVal("pads", pad, pad, pad, pad),
		AttrIntsVal("kernel_shape")) // kernel_shape inferred from weights; kept empty
}

// Relu appends a Relu node.
func (b *Builder) Relu(x string) string { return b.Node("Relu", []string{x}) }

// Add appends an elementwise Add.
func (b *Builder) Add(x, y string) string { return b.Node("Add", []string{x, y}) }

// Gemm appends a Gemm node y = x*W^T + bias (transB=1, ONNX convention
// for linear layers).
func (b *Builder) Gemm(x, w, bias string) string {
	inputs := []string{x, w}
	if bias != "" {
		inputs = append(inputs, bias)
	}
	return b.Node("Gemm", inputs, AttrIntVal("transB", 1))
}

// AveragePool appends an AveragePool node.
func (b *Builder) AveragePool(x string, kernel, stride int64) string {
	return b.Node("AveragePool", []string{x},
		AttrIntsVal("kernel_shape", kernel, kernel),
		AttrIntsVal("strides", stride, stride))
}

// GlobalAveragePool appends a GlobalAveragePool node.
func (b *Builder) GlobalAveragePool(x string) string {
	return b.Node("GlobalAveragePool", []string{x})
}

// Flatten appends a Flatten node.
func (b *Builder) Flatten(x string) string {
	return b.Node("Flatten", []string{x}, AttrIntVal("axis", 1))
}

// BatchNorm appends a BatchNormalization node with the given parameter
// initializer names.
func (b *Builder) BatchNorm(x, gamma, beta, mean, variance string, eps float64) string {
	return b.Node("BatchNormalization", []string{x, gamma, beta, mean, variance},
		AttrFloatVal("epsilon", eps))
}

// Reshape appends a Reshape node with a constant shape.
func (b *Builder) Reshape(x string, shape []int64) string {
	s := b.IntWeight(b.fresh("shape"), shape)
	return b.Node("Reshape", []string{x, s})
}

// Model finalizes the graph into a model.
func (b *Builder) Model() *Model {
	return &Model{
		IRVersion:    8,
		ProducerName: "antace-builder",
		OpsetVersion: 17,
		Graph:        b.g,
	}
}
