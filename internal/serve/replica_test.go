package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve/api"
	"antace/internal/store"
)

// TestReadyzStates pins the routing signal's three states: ready while
// serving, 503 "recovering" while journal replay is pending, and 503
// "draining" after Drain — both refusals carrying a Retry-After hint,
// while healthz stays a pure liveness probe.
func TestReadyzStates(t *testing.T) {
	s, ts, _ := startServer(t, Config{Workers: 1})

	status, rz, retryAfter := fetchReadyz(t, ts.URL)
	if status != http.StatusOK || rz.Status != "ready" {
		t.Fatalf("fresh server readyz: %d %+v", status, rz)
	}

	// Recovery in flight: unready, but alive.
	s.recovering.Add(1)
	status, rz, retryAfter = fetchReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable || rz.Status != "recovering" || rz.PendingRecovery != 1 {
		t.Fatalf("recovering readyz: %d %+v", status, rz)
	}
	if retryAfter == "" {
		t.Fatal("recovering 503 carried no Retry-After")
	}
	resp, err := http.Get(ts.URL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while recovering: %d, want 200 (liveness only)", resp.StatusCode)
	}
	s.recovering.Add(-1)
	if status, rz, _ = fetchReadyz(t, ts.URL); status != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %+v", status, rz)
	}

	drainServer(t, s)
	status, rz, retryAfter = fetchReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Fatalf("draining readyz: %d %+v", status, rz)
	}
	if retryAfter == "" {
		t.Fatal("draining 503 carried no Retry-After")
	}
}

// TestReplicaApplyTornTail: a shipment cut mid-frame (the wire shape of
// a shard dying mid-stream) applies the intact prefix and reports both
// the applied count and the tear, so the shipper re-sends only the cut
// records. The re-shipped remainder then lands cleanly.
func TestReplicaApplyTornTail(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})

	rec1 := mustEncode(t, recComplete, "aaaa/k1", []byte("result-one"))
	rec2 := mustEncode(t, recComplete, "aaaa/k2", []byte("result-two"))
	image := store.Image([][]byte{rec1, rec2})

	// Cut inside the second frame.
	cut := len(image) - len(rec2)/2 - 1
	reply := postReplica(t, ts.URL, image[:cut], http.StatusOK)
	if reply.Applied != 1 || !reply.Torn {
		t.Fatalf("torn apply: %+v, want applied=1 torn=true", reply)
	}

	reply = postReplica(t, ts.URL, store.Image([][]byte{rec2}), http.StatusOK)
	if reply.Applied != 1 || reply.Torn {
		t.Fatalf("re-ship apply: %+v, want applied=1 torn=false", reply)
	}
}

// TestReplicaApplyRejectsCorruptImage: a flipped byte inside a frame
// fails the CRC and the whole shipment is refused with 400 — corruption
// is never partially applied.
func TestReplicaApplyRejectsCorruptImage(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})
	image := store.Image([][]byte{mustEncode(t, recComplete, "aaaa/k1", []byte("result"))})
	image[len(image)-3] ^= 0xff
	postReplica(t, ts.URL, image, http.StatusBadRequest)
}

// TestReplicaApplyRejectsUnknownRecord: a frame that passes its CRC but
// does not parse as a replication record is a protocol mismatch, not
// wire damage — 400, because re-shipping the same bytes cannot help.
func TestReplicaApplyRejectsUnknownRecord(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})
	postReplica(t, ts.URL, store.Image([][]byte{{0x7f, 0x00}}), http.StatusBadRequest)
}

// TestReplicatedStateServesFailover is the serve half of the failover
// contract, with the replication transport driven by hand: shard A
// registers a session and answers an inference; its bundle and journal
// settlement are shipped to shard B as ACELOG1 records; B then (1)
// serves a fresh inference under the replicated keys with bytes
// identical to A's — FHE evaluation is deterministic given keys and
// input — and (2) replays A's completed idempotency key from the
// replicated journal entry without executing.
func TestReplicatedStateServesFailover(t *testing.T) {
	prog, vres := compileLinear(t)
	dirA := t.TempDir()
	srvA, err := New(prog, Config{Workers: 1, DataDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	tsA := newTestServer(t, srvA)
	srvB, err := New(prog, Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tsB := newTestServer(t, srvB)

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, tsA.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Register(ctx, ring.SeedFromInt(31))
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

	want := doInfer(t, tsA.URL, id, "k1", ctBytes, http.StatusOK)

	// Ship the session bundle A spilled to disk, exactly as the cluster
	// shipper would at registration.
	bundle, err := store.ReadFile(filepath.Join(dirA, "sessions", id+".key"))
	if err != nil {
		t.Fatal(err)
	}
	sessRec := mustEncode(t, recSession, id, bundle)
	if reply := postReplica(t, tsB.URL, store.Image([][]byte{sessRec}), http.StatusOK); reply.Applied != 1 {
		t.Fatalf("session apply: %+v", reply)
	}

	// (1) B executes the same ciphertext under the replicated keys.
	got := doInfer(t, tsB.URL, id, "fresh", ctBytes, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Fatal("replicated session produced different bytes than the primary")
	}

	// (2) Replicate A's settlement for k1: B must replay, not execute.
	compRec := mustEncode(t, recComplete, id+"/k1", want)
	if reply := postReplica(t, tsB.URL, store.Image([][]byte{compRec}), http.StatusOK); reply.Applied != 1 {
		t.Fatalf("completion apply: %+v", reply)
	}
	req, _ := http.NewRequest(http.MethodPost, tsB.URL+api.PathInfer, bytes.NewReader(ctBytes))
	req.Header.Set(api.HeaderSession, id)
	req.Header.Set(api.HeaderIdemKey, "k1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	replayed := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(api.HeaderIdemReplayed) != "1" {
		t.Fatalf("replicated completion not replayed: %d replayed=%q", resp.StatusCode, resp.Header.Get(api.HeaderIdemReplayed))
	}
	if !bytes.Equal(replayed, want) {
		t.Fatal("replicated completion replayed different bytes")
	}

	st := fetchStatz(t, tsB.URL)
	if st.ReplicaSessions != 1 {
		t.Errorf("replica_sessions = %d, want 1", st.ReplicaSessions)
	}
	if st.ReplicaResults != 1 {
		t.Errorf("replica_results = %d, want 1", st.ReplicaResults)
	}
}

// TestReplicaApplyRejectsBadSession: a session record whose bundle does
// not decode must not poison the session table.
func TestReplicaApplyRejectsBadSession(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1})
	rec := mustEncode(t, recSession, "0123456789abcdef0123456789abcdef", []byte("not a key bundle"))
	postReplica(t, ts.URL, store.Image([][]byte{rec}), http.StatusBadRequest)

	rec = mustEncode(t, recSession, "NOT-HEX", []byte{})
	postReplica(t, ts.URL, store.Image([][]byte{rec}), http.StatusBadRequest)
}

// --- helpers -------------------------------------------------------------

func newTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		drainServer(t, s)
	})
	return ts
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func fetchReadyz(t *testing.T, base string) (int, api.Readyz, string) {
	t.Helper()
	resp, err := http.Get(base + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rz api.Readyz
	if err := jsonDecode(resp, &rz); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rz, resp.Header.Get("Retry-After")
}

func postReplica(t *testing.T, base string, image []byte, wantStatus int) api.ReplicaApply {
	t.Helper()
	resp, err := http.Post(base+api.PathReplica, api.ContentTypeBinary, bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("replica apply: status %d, want %d; body %s", resp.StatusCode, wantStatus, buf.String())
	}
	var reply api.ReplicaApply
	if wantStatus == http.StatusOK {
		if err := jsonDecode(resp, &reply); err != nil {
			t.Fatal(err)
		}
	}
	return reply
}

func mustEncode(t *testing.T, kind byte, key string, body []byte) []byte {
	t.Helper()
	r, err := record{kind: kind, key: key, body: body}.encode()
	if err != nil {
		t.Fatal(err)
	}
	return r.raw
}

func doInfer(t *testing.T, base, session, idemKey string, ctBytes []byte, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+api.PathInfer, bytes.NewReader(ctBytes))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderSession, session)
	if idemKey != "" {
		req.Header.Set(api.HeaderIdemKey, idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("infer %s: status %d, want %d; body %s", idemKey, resp.StatusCode, wantStatus, body)
	}
	return body
}
