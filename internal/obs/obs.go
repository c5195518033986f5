// Package obs is the serving stack's observability layer: request trace
// ids carried through context, per-instruction FHE profiling, and
// Prometheus text-format metric exposition. Of the module it imports
// only the leaf kswork, for the fused kernels' names, and it sits below
// every other serving package — vm, serve, fheclient and the cmd
// binaries all import it, it imports none of them.
//
// The three concerns mirror the paper's evaluation methodology (§6):
// Figures 5–7 rest on knowing where time goes per operation and how the
// ciphertext level/scale evolve through a program, and a production
// daemon needs the same visibility on live traffic. A trace id minted
// per request (or accepted from the X-ACE-Trace header) makes one
// request's life greppable across the queue, the VM and the durability
// journal; a RunProfile records each instruction's cost and the CKKS
// level/scale trajectory; Aggregate folds runs into per-opcode
// histograms behind GET /v1/profilez and GET /metrics.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
)

type traceKey struct{}

// NewTraceID mints a 32-hex-char (16 random bytes) trace id. It never
// fails: if the system randomness source is unavailable the id falls
// back to a fixed sentinel, which keeps requests serviceable (trace ids
// gate nothing security-relevant).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether a client-supplied trace id is safe to
// adopt: 8..64 characters of lowercase hex, so it greps cleanly and
// cannot smuggle log-injection payloads or unbounded strings into
// structured logs.
func ValidTraceID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// WithTrace attaches a trace id to the context; the id travels with the
// request through the queue into vm.Machine.RunCtx and the checkpoint
// sink.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the context's trace id, or "" when none is attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Logger returns base (or slog.Default when base is nil) with the
// context's trace id attached as the "trace" attribute, so every event
// logged for one request carries the same greppable id.
func Logger(ctx context.Context, base *slog.Logger) *slog.Logger {
	if base == nil {
		base = slog.Default()
	}
	if id := TraceID(ctx); id != "" {
		return base.With(slog.String("trace", id))
	}
	return base
}
