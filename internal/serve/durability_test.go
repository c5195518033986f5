package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"antace/internal/ckks"
	"antace/internal/fault"
	"antace/internal/fheclient"
	"antace/internal/ring"
	"antace/internal/serve/api"
	"antace/internal/store"
	"antace/internal/vm"
)

// serveOn starts an httptest server on a specific address so a
// "restarted" server can come back where the old one listened — the
// shape clients see when a daemon bounces.
func serveOn(t *testing.T, addr string, s *Server) *httptest.Server {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // the old listener may linger briefly
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: s}}
	ts.Start()
	return ts
}

// rawInfer posts a ciphertext with an explicit idempotency key and
// returns status, result bytes and whether the reply was an
// idempotency-cache replay.
func rawInfer(t *testing.T, base, sessID, idemKey string, body []byte) (int, []byte, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+api.PathInfer, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	req.Header.Set(api.HeaderSession, sessID)
	req.Header.Set(api.HeaderIdemKey, idemKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(api.HeaderIdemReplayed) == "1"
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRejectsHostileSessionIDs: session ids become file names
// under the data dir, so anything but the 32-hex form api.NewID
// produces must be refused before any disk operation — a traversal id
// must not read, touch or delete files outside sessions/.
func TestDurableRejectsHostileSessionIDs(t *testing.T) {
	dir := t.TempDir()
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.close()

	// A store-framed file one level above sessDir — the reachable target
	// of an id like "../victim".
	victim := filepath.Join(dir, "victim.key")
	if err := store.WriteFile(victim, []byte("key material")); err != nil {
		t.Fatal(err)
	}

	hostile := []string{
		"", "..", "../victim", "../../etc/target", "a/b",
		strings.Repeat("z", 32),                          // right length, not hex
		strings.Repeat("A", 32),                          // uppercase is never generated
		strings.Repeat("0", 31), strings.Repeat("0", 33), // wrong length
	}
	for _, id := range hostile {
		if _, err := dur.loadSession(id); err == nil {
			t.Errorf("loadSession(%q) succeeded", id)
		}
		if dur.dropSession(id) {
			t.Errorf("dropSession(%q) deleted a file", id)
		}
		if err := dur.saveSession(id, []byte("x")); err == nil {
			t.Errorf("saveSession(%q) wrote a file", id)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("victim file outside sessions/ was touched: %v", err)
	}

	good := strings.Repeat("0123456789abcdef", 2)
	if !api.ValidID(good) {
		t.Fatalf("generated-form id %q rejected", good)
	}
	if err := dur.saveSession(good, []byte("bundle")); err != nil {
		t.Fatalf("saveSession(valid id): %v", err)
	}
	if raw, err := dur.loadSession(good); err != nil || string(raw) != "bundle" {
		t.Fatalf("loadSession(valid id): %q, %v", raw, err)
	}
}

// TestDropSessionTraversalOverHTTP: a DELETE with an encoded traversal
// id must answer an error, never remove files outside sessions/.
func TestDropSessionTraversalOverHTTP(t *testing.T) {
	dir := t.TempDir()
	prog, _ := compileLinear(t)
	s, err := New(prog, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveOn(t, "127.0.0.1:0", s)
	defer func() { ts.Close(); drain(t, s) }()

	victim := filepath.Join(dir, "victim.key")
	if err := store.WriteFile(victim, []byte("key material")); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+api.PathSessions+"/..%2Fvictim", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		t.Fatalf("traversal DELETE answered %d", resp.StatusCode)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("traversal DELETE removed a file outside sessions/: %v", err)
	}
}

// TestOversizedIdemKeyRejected: an idempotency key past the cap is a
// 400 at the door. Before the cap, a >64 KiB key silently truncated the
// journal record's uint16 length framing, and the misframed record
// bricked every subsequent startup.
func TestOversizedIdemKeyRejected(t *testing.T) {
	dir := t.TempDir()
	prog, _ := compileLinear(t)
	s, err := New(prog, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveOn(t, "127.0.0.1:0", s)
	defer func() { ts.Close(); drain(t, s) }()

	status, _, _ := rawInfer(t, ts.URL, strings.Repeat("0", 32),
		strings.Repeat("k", maxIdemKeyBytes+1), []byte("ciphertext"))
	if status != http.StatusBadRequest {
		t.Fatalf("oversized idempotency key: status %d, want 400", status)
	}
}

// TestJournalEncodingRejectsOversizedStrings: even if an oversized key
// reaches the journal layer, encoding must fail loudly instead of
// truncating the uint16 length field, and the journal must stay
// replayable.
func TestJournalEncodingRejectsOversizedStrings(t *testing.T) {
	big := strings.Repeat("k", math.MaxUint16+1)
	for _, r := range []record{
		{kind: recForget, key: big},
		{kind: recAccept, key: "key", sessID: big},
		{kind: recComplete, key: big, body: []byte("result")},
	} {
		if _, err := r.encode(); err == nil {
			t.Fatalf("kind %d record silently truncated an oversized string", r.kind)
		}
	}

	dir := t.TempDir()
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.accept(big, "sess", time.Time{}, []byte("input")); err == nil {
		t.Fatal("accept journaled an unframeable key")
	}
	dur.forget(big) // must not write a misframed record
	dur.close()

	dur2, st, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatalf("journal bricked by oversized key: %v", err)
	}
	defer dur2.close()
	if len(st.pending) != 0 || len(st.completed) != 0 {
		t.Fatalf("oversized-key records leaked into the journal: %d pending, %d completed",
			len(st.pending), len(st.completed))
	}
}

// TestRestartRecoversSessionsAndIdemReplay is the in-process restart
// check: a daemon with a data dir is replaced by a fresh instance over
// the same directory, and (a) a session registered before the restart
// keeps working without re-registration, (b) a retry of a completed
// idempotent request replays the exact pre-restart bytes.
func TestRestartRecoversSessionsAndIdemReplay(t *testing.T) {
	dir := t.TempDir()
	progA, vres := compileLinear(t)
	sA, err := New(progA, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := serveOn(t, "127.0.0.1:0", sA)
	addr := tsA.Listener.Addr().String()

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, tsA.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessID, err := c.Register(ctx, ring.SeedFromInt(31))
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
	status, want, replayed := rawInfer(t, tsA.URL, sessID, "idem-1", ctBytes)
	if status != http.StatusOK || replayed {
		t.Fatalf("first keyed request: status %d replayed %v", status, replayed)
	}
	if st := fetchStatz(t, tsA.URL); st.Restarts != 0 || st.StoreBytes <= 0 {
		t.Fatalf("statz before restart: restarts %d, store_bytes %d", st.Restarts, st.StoreBytes)
	}

	tsA.Close()
	drain(t, sA)

	progB, _ := compileLinear(t)
	sB, err := New(progB, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := serveOn(t, addr, sB)
	defer func() { tsB.Close(); drain(t, sB) }()

	// (b) The retry under the same key replays pre-restart bytes.
	status, got, replayed := rawInfer(t, tsB.URL, sessID, "idem-1", ctBytes)
	if status != http.StatusOK || !replayed {
		t.Fatalf("post-restart retry: status %d replayed %v", status, replayed)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-restart idempotent replay is not bit-identical")
	}

	// (a) The session reloads from disk for a fresh request; the client
	// still points at the same address and session id.
	input2 := testInput(vres.InLayout.L)
	input2[0] = 0.11
	out, err := c.Infer(ctx, input2)
	if err != nil {
		t.Fatalf("inference after restart: %v", err)
	}
	checkAgainstReference(t, vres, input2, out)

	st := fetchStatz(t, tsB.URL)
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if st.SessionsRecovered != 1 {
		t.Fatalf("sessions_recovered = %d, want 1", st.SessionsRecovered)
	}
	if st.IdemReplays != 1 {
		t.Fatalf("idem_replays = %d, want 1", st.IdemReplays)
	}
}

// TestRestartResumesJournaledJobFromCheckpoint reconstructs the disk
// state a kill -9 leaves behind — an accepted-but-uncompleted journal
// entry plus a mid-program checkpoint — and checks that a fresh daemon
// finishes the job from the checkpoint and serves the retry the exact
// bytes an uninterrupted run produces.
func TestRestartResumesJournaledJobFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	progA, vres := compileLinear(t)
	sA, err := New(progA, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := serveOn(t, "127.0.0.1:0", sA)

	ctx := context.Background()
	c, err := fheclient.Dial(ctx, tsA.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessID, err := c.Register(ctx, ring.SeedFromInt(32))
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

	// Compute the uninterrupted result and capture a mid-program
	// checkpoint on a scratch machine built from the registered keys —
	// the same snapshot a crashed worker would have left on disk.
	sess, ok := sA.lookupSession(sessID)
	if !ok {
		t.Fatal("registered session not found")
	}
	m := vm.NewMachine(sA.sh, sess.keys)
	var snaps [][]byte
	m.Ckpt = &vm.CheckpointPolicy{EveryN: 1, Sink: func(b []byte) error {
		snaps = append(snaps, append([]byte(nil), b...))
		return nil
	}}
	in := &ckks.Ciphertext{}
	if err := in.UnmarshalBinary(ctBytes); err != nil {
		t.Fatal(err)
	}
	ref, err := m.RunCtx(ctx, sA.module, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d checkpoints captured", len(snaps))
	}

	tsA.Close()
	drain(t, sA)

	// Forge the crash residue: journaled accept, no complete, and the
	// mid-program checkpoint under the job's key.
	key := sessID + "/idem-crash"
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.accept(key, sessID, time.Time{}, ctBytes); err != nil {
		t.Fatal(err)
	}
	if err := dur.writeCheckpoint(key, snaps[len(snaps)/2]); err != nil {
		t.Fatal(err)
	}
	dur.close()

	progB, _ := compileLinear(t)
	sB, err := New(progB, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := serveOn(t, "127.0.0.1:0", sB)
	defer func() { tsB.Close(); drain(t, sB) }()

	// The retried request attaches to (or replays) the recovered job.
	status, got, _ := rawInfer(t, tsB.URL, sessID, "idem-crash", ctBytes)
	if status != http.StatusOK {
		t.Fatalf("retry of crashed job: status %d body %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered job result differs from the uninterrupted run")
	}
	st := fetchStatz(t, tsB.URL)
	if st.JobsResumed != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", st.JobsResumed)
	}
	if st.SessionsRecovered == 0 {
		t.Fatalf("sessions_recovered = %d, want > 0", st.SessionsRecovered)
	}
}

// TestRecoveryFaultFailsJobOpen: an armed serve.recover.err makes
// recovery abandon the journaled job; the retry gets 503 (re-execute
// signal), not a hang and not a crash.
func TestRecoveryFaultFailsJobOpen(t *testing.T) {
	dir := t.TempDir()
	progA, vres := compileLinear(t)
	sA, err := New(progA, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := serveOn(t, "127.0.0.1:0", sA)
	ctx := context.Background()
	c, err := fheclient.Dial(ctx, tsA.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessID, err := c.Register(ctx, ring.SeedFromInt(33))
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
	tsA.Close()
	drain(t, sA)

	key := sessID + "/idem-fault"
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.accept(key, sessID, time.Time{}, ctBytes); err != nil {
		t.Fatal(err)
	}
	dur.close()

	if err := fault.Arm(fault.ServeRecoverErr + ":1:0"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	progB, _ := compileLinear(t)
	sB, err := New(progB, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := serveOn(t, "127.0.0.1:0", sB)
	defer func() { tsB.Close(); drain(t, sB) }()

	// The retry sees either 503 (attached while the doomed recovery was
	// still in flight) or a clean re-execution (the failed entry was
	// already cleared); a second attempt always succeeds. Either way the
	// job must not count as resumed.
	status, _, _ := rawInfer(t, tsB.URL, sessID, "idem-fault", ctBytes)
	if status == http.StatusServiceUnavailable {
		status, _, _ = rawInfer(t, tsB.URL, sessID, "idem-fault", ctBytes)
	}
	if status != http.StatusOK {
		t.Fatalf("retry after failed recovery: status %d", status)
	}
	st := fetchStatz(t, tsB.URL)
	if st.FaultsFired == 0 {
		t.Fatalf("armed %s never fired", fault.ServeRecoverErr)
	}
	if st.JobsResumed != 0 {
		t.Fatalf("jobs_resumed = %d after recovery fault, want 0", st.JobsResumed)
	}
}

// TestRecoveryWithoutSessionFailsOpen: a journaled job whose session
// bundle did not survive cannot resume; the retry is told to start over
// rather than left hanging.
func TestRecoveryWithoutSessionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.accept("ghost/idem-x", "ghost", time.Time{}, []byte("ciphertext")); err != nil {
		t.Fatal(err)
	}
	dur.close()

	prog, _ := compileLinear(t)
	s, err := New(prog, Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := serveOn(t, "127.0.0.1:0", s)
	defer func() { tsB.Close(); drain(t, s) }()

	// The recovered job settles as failed (its failed idem entry is
	// removed, so the cache empties); nothing may count it as resumed.
	deadline := time.Now().Add(10 * time.Second)
	for s.idem.len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("ghost job never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := fetchStatz(t, tsB.URL); st.JobsResumed != 0 || st.Served != 0 {
		t.Fatalf("ghost job counted as work: %+v", st)
	}
}

// TestCheckpointRemovedOnSettle: settling a job deletes its checkpoint
// file and returns its bytes, on complete, on forget and after a restart
// that found the file on disk; settling a job that never checkpointed
// leaves every other checkpoint in place.
func TestCheckpointRemovedOnSettle(t *testing.T) {
	dir := t.TempDir()
	dur, _, err := openDurable(dir, 1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	exists := func(key string) bool {
		_, err := os.Stat(dur.ckptPath(key))
		return err == nil
	}
	settle := func(key string, complete bool) {
		t.Helper()
		if complete {
			r, err := (record{kind: recComplete, key: key, body: []byte("result")}).encode()
			if err != nil {
				t.Fatal(err)
			}
			dur.complete(r)
		} else {
			dur.forget(key)
		}
	}
	for _, complete := range []bool{true, false} {
		key := "sess/idem-live"
		if err := dur.writeCheckpoint(key, []byte("first checkpoint")); err != nil {
			t.Fatal(err)
		}
		if err := dur.writeCheckpoint(key, []byte("second, longer checkpoint")); err != nil {
			t.Fatal(err)
		}
		if got := dur.ckptBytes.Load(); got <= int64(len("second, longer checkpoint")) || !exists(key) {
			t.Fatalf("after two checkpoints: %d bytes, file present %v", got, exists(key))
		}
		settle("sess/idem-never-checkpointed", complete)
		if !exists(key) || dur.ckptBytes.Load() == 0 {
			t.Fatal("settling another job touched this job's checkpoint")
		}
		settle(key, complete)
		if exists(key) || dur.ckptBytes.Load() != 0 {
			t.Fatalf("complete=%v: file present %v, %d checkpoint bytes left", complete, exists(key), dur.ckptBytes.Load())
		}
	}

	key := "sess/idem-crash"
	if err := dur.writeCheckpoint(key, []byte("checkpoint before the crash")); err != nil {
		t.Fatal(err)
	}
	want := dur.ckptBytes.Load()
	dur.close()
	if dur, _, err = openDurable(dir, 1<<30, 16); err != nil {
		t.Fatal(err)
	}
	defer dur.close()
	if got := dur.ckptBytes.Load(); got != want || !exists(key) {
		t.Fatalf("after restart: %d checkpoint bytes (want %d), file present %v", got, want, exists(key))
	}
	settle(key, true)
	if exists(key) || dur.ckptBytes.Load() != 0 {
		t.Fatalf("after restart: file present %v, %d checkpoint bytes left", exists(key), dur.ckptBytes.Load())
	}
}
