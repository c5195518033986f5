package fheclient

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"antace/internal/ckks"
	"antace/internal/ring"
	"antace/internal/serve/api"
)

// TestReplyLaneStrideChecked: against a stub daemon whose spec batches
// 16 values at stride 8, a reply is decoded only when its lane stride is
// the spec's. A stride above slots/VecLen (which would decode a short
// vector), one that is not a power of two (garbage) and a lane past the
// stride are errors, not short results or panics.
func TestReplyLaneStrideChecked(t *testing.T) {
	lit := ckks.ParametersLiteral{LogN: 8, LogQ: []int{50, 40}, LogP: []int{50}, LogScale: 40}
	params, err := lit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const vecLen, stride = 16, 8
	spec := api.ProgramSpec{Name: "stub", Params: params, LogN: lit.LogN, VecLen: vecLen,
		InputLevel: 1, InputScale: math.Exp2(40), Rotations: []int{stride}, BatchStride: stride}
	var lane, laneStride atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+api.PathProgram, func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, spec)
	})
	mux.HandleFunc("POST "+api.PathSessions, func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusCreated, api.SessionReply{SessionID: "0123456789abcdef0123456789abcdef"})
	})
	mux.HandleFunc("POST "+api.PathInfer, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if s := laneStride.Load().(string); s != "" {
			w.Header().Set(api.HeaderLaneStride, s)
			w.Header().Set(api.HeaderLane, lane.Load().(string))
		}
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		_, _ = w.Write(body)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx := context.Background()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	if _, err := c.Register(ctx, ring.SeedFromInt(5)); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, vecLen)
	for i := range in {
		in[i] = float64(i)/vecLen - 0.5
	}
	for _, tc := range []struct {
		name, stride, lane string
		ok                 bool
	}{
		{"solo reply", "", "", true},
		{"spec stride", "8", "0", true},
		{"stride above slots/VecLen", "16", "0", false},
		{"stride not a power of two", "6", "0", false},
		{"lane past the stride", "8", "8", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			laneStride.Store(tc.stride)
			lane.Store(tc.lane)
			got, err := c.Infer(ctx, in)
			if !tc.ok {
				if err == nil {
					t.Fatalf("reply decoded to %d values", len(got))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != vecLen {
				t.Fatalf("decoded %d values, want %d", len(got), vecLen)
			}
			for i := range in {
				if math.Abs(got[i]-in[i]) > 1e-6 {
					t.Fatalf("slot %d decodes to %g, sent %g", i, got[i], in[i])
				}
			}
		})
	}
}
