package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"antace/internal/cluster"
	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve/api"
	"antace/internal/store"
)

// FuzzRecord holds the one codec to its contract: decoding never
// panics, and every record it accepts re-encodes to exactly the bytes it
// read, so a record copied from the wire into a journal, or rewritten by
// compaction, keeps its bytes.
func FuzzRecord(f *testing.F) {
	for _, r := range []record{
		{kind: recAccept, key: "s/k", sessID: "s", deadlineMs: 1700000000000, body: []byte("input")},
		{kind: recForget, key: "s/k"},
		{kind: recComplete, key: "s/k", lane: 3, stride: 8, body: []byte("result")},
		{kind: recSession, key: strings.Repeat("ab", 16), body: []byte("bundle")},
	} {
		enc, err := r.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc.raw)
	}
	f.Add([]byte{recRetired, 1, 0, 'k'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := decodeRecord(raw)
		if err != nil {
			return
		}
		again, err := r.encode()
		if err != nil {
			t.Fatalf("decoded kind %d record does not re-encode: %v", r.kind, err)
		}
		if !bytes.Equal(again.raw, raw) {
			t.Fatalf("re-encoding changed the bytes:\n got %x\nwant %x", again.raw, raw)
		}
	})
}

// TestRecordParentLayouts feeds records hand-built in the layouts the
// previous format wrote through the path each one reaches — the
// journal's through the journal fold, the replication stream's through
// POST /v1/replica. Each reads back the fields it was written with or is
// refused; none is read as something else.
func TestRecordParentLayouts(t *testing.T) {
	u16 := func(v int) []byte { return binary.LittleEndian.AppendUint16(nil, uint16(v)) }
	str := func(s string) []byte { return append(u16(len(s)), s...) }
	rec := func(kind byte, parts ...[]byte) []byte { return bytes.Join(append([][]byte{{kind}}, parts...), nil) }
	same := func(a, b record) bool {
		return a.kind == b.kind && a.key == b.key && a.sessID == b.sessID && a.deadlineMs == b.deadlineMs &&
			a.lane == b.lane && a.stride == b.stride && bytes.Equal(a.body, b.body)
	}
	id := strings.Repeat("0123456789abcdef", 2)
	key := id + "/k1"

	// The journal: accept, forget and the laned completion read back
	// unchanged; the lane-less completion is refused by its number.
	for _, tc := range []struct {
		name string
		raw  []byte
		want record // kind 0: refused
	}{
		{"accept", rec(1, str(key), str(id), binary.LittleEndian.AppendUint64(nil, 1700000000123), []byte("input")),
			record{kind: recAccept, key: key, sessID: id, deadlineMs: 1700000000123, body: []byte("input")}},
		{"forget", rec(3, str(key)), record{kind: recForget, key: key}},
		{"laned complete", rec(4, str(key), u16(2), u16(8), []byte("result")),
			record{kind: recComplete, key: key, lane: 2, stride: 8, body: []byte("result")}},
		{"lane-less complete", rec(2, str(key), []byte("result")), record{}},
	} {
		_, ferr := foldJournal([][]byte{tc.raw})
		got, err := decodeRecord(tc.raw)
		if tc.want.kind == 0 {
			if ferr == nil || err == nil || !strings.Contains(ferr.Error(), "kind 2") {
				t.Errorf("%s: fold %v, decode %v; want both refused, naming kind 2", tc.name, ferr, err)
			}
			continue
		}
		if ferr != nil || err != nil {
			t.Errorf("%s: fold %v, decode %v", tc.name, ferr, err)
			continue
		}
		if !same(got, tc.want) {
			t.Errorf("%s: read back as %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// The replication stream: its session (1), laned completion (2) and
	// forget (3) are all refused, and nothing is applied.
	_, ts, _ := startServer(t, Config{Workers: 1})
	for _, raw := range [][]byte{
		rec(1, str(id), []byte("key bundle")),
		rec(2, str(key), u16(0), u16(0), []byte("result")),
		rec(3, str(key)),
	} {
		postReplica(t, ts.URL, store.Image([][]byte{raw}), http.StatusBadRequest)
	}
	if st := fetchStatz(t, ts.URL); st.ReplicaSessions != 0 || st.ReplicaResults != 0 {
		t.Fatalf("refused records were applied: %d sessions, %d results", st.ReplicaSessions, st.ReplicaResults)
	}
}

// TestRecordReplicaRefusesAcceptAndForget: accepts and forgets are one
// shard's own journal business, so /v1/replica answers 400 to either —
// a replicated forget could destroy a result another shard settled.
func TestRecordReplicaRefusesAcceptAndForget(t *testing.T) {
	s, ts, _ := startServer(t, Config{Workers: 1})
	id := strings.Repeat("ab", 16)
	for _, r := range []record{
		{kind: recAccept, key: id + "/k1", sessID: id, body: []byte("input")},
		{kind: recForget, key: id + "/k1"},
	} {
		enc, err := r.encode()
		if err != nil {
			t.Fatal(err)
		}
		postReplica(t, ts.URL, store.Image([][]byte{enc.raw}), http.StatusBadRequest)
	}
	if n := s.idem.len(); n != 0 {
		t.Fatalf("refused records left %d idempotency entries", n)
	}
}

// TestRecordSameBytesOnDiskAndWire: one settled result is one record.
// Its bytes in the primary's jobs.log, in the image the primary's
// shipper posts and in the replica's jobs.log are the same — the primary
// encodes it once and the replica journals what it received.
func TestRecordSameBytesOnDiskAndWire(t *testing.T) {
	prog, vres := compileLinear(t)
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rg, err := cluster.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cluster.NewShipper(rg, urls[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	dirA, dirB := t.TempDir(), t.TempDir()
	srvA, err := New(prog, Config{Workers: 1, DataDir: dirA, Replicator: sh})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(prog, Config{Workers: 1, DataDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainServer(t, srvA); drainServer(t, srvB) })
	var mu sync.Mutex
	var images [][]byte
	tap := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathReplica {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			images = append(images, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srvB.ServeHTTP(w, r)
	})
	for i, h := range []http.Handler{srvA, tap} {
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
	}

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, urls[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Register(ctx, ring.SeedFromInt(41))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.Encrypt(testInput(vres.InLayout.L))
	if err != nil {
		t.Fatal(err)
	}
	ctBytes, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := doInfer(t, urls[0], id, "k1", ctBytes, http.StatusOK)

	// Completions ship asynchronously: wait until the replica applied it.
	for deadline := time.Now().Add(30 * time.Second); fetchStatz(t, urls[1]).ReplicaResults == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the completion never reached the replica")
		}
	}

	// settled picks out of an ACELOG1 image the records carrying this
	// result: whatever their layout, they end with the reply bytes.
	settled := func(where string, image []byte) [][]byte {
		recs, _, err := store.Replay(image)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var out [][]byte
		for _, r := range recs {
			if bytes.HasSuffix(r, want) {
				out = append(out, r)
			}
		}
		return out
	}
	journal := func(dir string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var shipped [][]byte
	mu.Lock()
	for _, img := range images {
		shipped = append(shipped, settled("shipped image", img)...)
	}
	mu.Unlock()
	onA, onB := settled("primary journal", journal(dirA)), settled("replica journal", journal(dirB))
	if len(onA) != 1 || len(shipped) != 1 || len(onB) != 1 {
		t.Fatalf("result records: %d in the primary's journal, %d shipped, %d in the replica's journal; want 1 each",
			len(onA), len(shipped), len(onB))
	}
	head := func(b []byte) []byte { return b[:min(len(b), 48)] }
	if !bytes.Equal(onA[0], shipped[0]) || !bytes.Equal(shipped[0], onB[0]) {
		t.Fatalf("one result, more than one encoding:\nprimary journal %x…\nshipped         %x…\nreplica journal %x…",
			head(onA[0]), head(shipped[0]), head(onB[0]))
	}
}
