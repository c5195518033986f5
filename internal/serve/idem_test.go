package serve

import (
	"bytes"
	"testing"
)

// settled is a complete record for the key "sess/k".
func settled(body string, lane, stride int) record {
	return record{kind: recComplete, key: "sess/k", lane: lane, stride: stride, body: []byte(body)}
}

// TestIdemRestorePromotesOverAbandonedAttempt: a replicated completion
// arriving while a local attempt under the same key is in flight (a
// hedged duplicate racing the original's shipped settlement) must not
// be lost when that local attempt is abandoned — the stashed bytes are
// promoted and later retries replay them.
func TestIdemRestorePromotesOverAbandonedAttempt(t *testing.T) {
	c := newIdemCache(8)
	entry, owner := c.begin("sess/k")
	if !owner {
		t.Fatal("first begin did not own the key")
	}

	// The authoritative settlement lands from the replica stream while
	// the local attempt is still running.
	c.restore(settled("settled", 3, 4))

	// The local attempt is abandoned (hedge loser cancelled): instead of
	// forgetting the key, the replicated result takes its place.
	c.complete(entry, false, record{})

	again, owner := c.begin("sess/k")
	if owner {
		t.Fatal("key was forgotten despite a stashed replicated completion")
	}
	<-again.done
	if !again.ok || !bytes.Equal(again.res.body, []byte("settled")) || again.res.lane != 3 || again.res.stride != 4 {
		t.Fatalf("promoted entry = ok=%v body=%q lane=%d stride=%d, want the replicated settlement",
			again.ok, again.res.body, again.res.lane, again.res.stride)
	}
}

// TestIdemRestoreDoesNotOverrideLocalSuccess: a stash must never clobber
// a local attempt that completes successfully — its own bytes win (they
// are bit-identical by determinism anyway).
func TestIdemRestoreDoesNotOverrideLocalSuccess(t *testing.T) {
	c := newIdemCache(8)
	entry, _ := c.begin("sess/k")
	c.restore(settled("replicated", 0, 0))
	c.complete(entry, true, settled("local", 1, 2))

	again, owner := c.begin("sess/k")
	if owner {
		t.Fatal("completed key was not retained")
	}
	if !bytes.Equal(again.res.body, []byte("local")) || again.res.lane != 1 || again.res.stride != 2 {
		t.Fatalf("entry = %q lane=%d stride=%d, want the local success", again.res.body, again.res.lane, again.res.stride)
	}
}

// TestIdemRestoreCompletedUntouched: restore against an already-retained
// success is a no-op.
func TestIdemRestoreCompletedUntouched(t *testing.T) {
	c := newIdemCache(8)
	entry, _ := c.begin("sess/k")
	c.complete(entry, true, settled("first", 0, 0))
	c.restore(settled("second", 0, 0))

	again, _ := c.begin("sess/k")
	if !bytes.Equal(again.res.body, []byte("first")) {
		t.Fatalf("retained body %q, want the original", again.res.body)
	}
}
