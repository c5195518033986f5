package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antace/internal/serve/api"
	"antace/internal/store"
)

// durable is the daemon's disk tier: registered evaluation-key bundles
// spilled as checksummed snapshot files, a crash-safe journal of
// idempotent inference jobs, and per-job execution checkpoints. RAM
// stays the hot tier — nothing here sits on the request fast path
// except one fsynced journal append per keyed request — and disk turns
// a daemon restart from "every session and in-flight inference is
// lost" into "sessions reload lazily and journaled jobs resume from
// their last checkpoint".
//
// Layout under the data dir:
//
//	restarts          start counter (atomic snapshot file)
//	sessions/<id>.key registered key bundles, CRC-framed
//	jobs.log          journal: accept / complete / forget records
//	jobs/<hash>.ckpt  latest execution checkpoint per in-flight job
type durable struct {
	root    string
	sessDir string
	jobDir  string

	// mu serializes journal appends, compaction and disk-budget
	// accounting. Key-bundle and checkpoint file writes happen outside
	// it; they are atomic at the store layer.
	mu        sync.Mutex
	journal   *store.Log
	idemCap   int   // completed results retained across restarts
	budget    int64 // session spill budget in bytes
	sessBytes int64 // current bytes under sessDir

	ckptBytes   atomic.Int64  // live checkpoint file bytes
	ckptWritten atomic.Uint64 // cumulative checkpoint bytes (statz)
	storeErrs   atomic.Uint64 // persistence failures (serving continued)
}

// journalCap bounds jobs.log between compactions; crossing it triggers
// a rewrite keeping only live accepts and the retained result LRU.
const journalCap = 64 << 20

// journalState is the fold of a journal replay: jobs accepted but not
// yet settled, and settled results in completion order. Each live
// record keeps its bytes, so compaction rewrites them as they are.
type journalState struct {
	pending   map[string]record // accepts not yet settled
	order     []string          // accept order of pending keys
	completed map[string]record // settled results
	done      []string          // completion order of completed keys
}

func openDurable(dir string, diskBudget int64, idemCap int) (*durable, *journalState, error) {
	d := &durable{
		root:    dir,
		sessDir: filepath.Join(dir, "sessions"),
		jobDir:  filepath.Join(dir, "jobs"),
		budget:  diskBudget,
		idemCap: idemCap,
	}
	for _, p := range []string{dir, d.sessDir, d.jobDir} {
		if err := os.MkdirAll(p, 0o700); err != nil {
			return nil, nil, err
		}
	}
	journal, records, err := store.OpenLog(filepath.Join(dir, "jobs.log"))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job journal: %w", err)
	}
	d.journal = journal
	st, err := foldJournal(records)
	if err != nil {
		journal.Close()
		return nil, nil, err
	}
	d.sessBytes = dirBytes(d.sessDir)
	d.ckptBytes.Store(dirBytes(d.jobDir))
	return d, st, nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// bumpRestarts increments the start counter and returns how many
// restarts (starts beyond the first) this data dir has seen.
func (d *durable) bumpRestarts() uint64 {
	var starts uint64
	if raw, err := store.ReadFile(filepath.Join(d.root, "restarts")); err == nil && len(raw) == 8 {
		starts = binary.LittleEndian.Uint64(raw)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], starts+1)
	if err := store.WriteFile(filepath.Join(d.root, "restarts"), buf[:]); err != nil {
		d.storeErrs.Add(1)
	}
	return starts // 0 on the very first start
}

// foldJournal reduces replayed records to the live state. Keys with
// overlapping records (accept → forget → complete, from a handler that
// gave up while the worker finished) resolve in append order, so the
// final record wins.
func foldJournal(records [][]byte) (*journalState, error) {
	st := &journalState{pending: map[string]record{}, completed: map[string]record{}}
	for i, raw := range records {
		r, err := decodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("serve: journal record %d: %w", i, err)
		}
		switch r.kind {
		case recAccept:
			if _, dup := st.pending[r.key]; !dup {
				st.order = append(st.order, r.key)
			}
			st.pending[r.key] = r
		case recComplete:
			st.dropPending(r.key)
			if _, dup := st.completed[r.key]; !dup {
				st.done = append(st.done, r.key)
			}
			st.completed[r.key] = r
		case recForget:
			st.dropPending(r.key)
		default:
			return nil, fmt.Errorf("serve: journal record %d: kind %d is never journaled", i, r.kind)
		}
	}
	return st, nil
}

// retained returns the keys of the newest n settled results, oldest
// first: the ones the idempotency LRU keeps.
func (st *journalState) retained(n int) []string {
	return st.done[max(0, len(st.done)-n):]
}

func (st *journalState) dropPending(key string) {
	if _, ok := st.pending[key]; !ok {
		return
	}
	delete(st.pending, key)
	for i, k := range st.order {
		if k == key {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// --- job journal --------------------------------------------------------

// accept journals an admitted idempotent job: key, owning session, the
// request's absolute deadline and the input ciphertext, fsynced before
// the job enters the queue so a crash at any later point can re-execute
// it within the client's remaining time budget.
func (d *durable) accept(key, sessID string, deadline time.Time, input []byte) error {
	r := record{kind: recAccept, key: key, sessID: sessID, body: input}
	if !deadline.IsZero() {
		r.deadlineMs = deadline.UnixMilli()
	}
	r, err := r.encode()
	if err != nil {
		d.storeErrs.Add(1)
		return err
	}
	return d.append(r.raw)
}

// complete journals a settled job's complete record — the persisted half
// of the idempotency success LRU, byte for byte the record the
// replication stream carries — and removes its checkpoint.
func (d *durable) complete(r record) {
	_ = d.append(r.raw) // a failure is counted in storeErrs
	d.removeCheckpoint(r.key)
}

// forget journals that a job's attempt died (failure, timeout, drain):
// a post-restart retry must re-execute rather than resume or replay.
func (d *durable) forget(key string) {
	if r, err := (record{kind: recForget, key: key}).encode(); err != nil {
		d.storeErrs.Add(1)
	} else {
		_ = d.append(r.raw) // a failure is counted in storeErrs
	}
	d.removeCheckpoint(key)
}

// append journals one encoded record and compacts the journal once it
// crosses journalCap. A failed append is counted in storeErrs.
func (d *durable) append(raw []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.journal.Append(raw); err != nil {
		d.storeErrs.Add(1)
		return err
	}
	d.compactIfOversized()
	return nil
}

// compactIfOversized rewrites the journal down to live state once it
// crosses journalCap. Called with mu held.
func (d *durable) compactIfOversized() {
	if d.journal.Size() <= journalCap {
		return
	}
	data, err := os.ReadFile(d.journal.Path())
	if err != nil {
		d.storeErrs.Add(1)
		return
	}
	records, _, rerr := store.Replay(data)
	if rerr != nil {
		d.storeErrs.Add(1)
		return
	}
	st, err := foldJournal(records)
	if err != nil {
		d.storeErrs.Add(1)
		return
	}
	if err := d.rewrite(st); err != nil {
		d.storeErrs.Add(1)
	}
}

// rewrite compacts the journal to the given state: every pending
// accept plus the most recent idemCap completed results, each as the
// bytes it was journaled with. Called with mu held.
func (d *durable) rewrite(st *journalState) error {
	recs := make([][]byte, 0, len(st.order)+len(st.done))
	for _, key := range st.order {
		recs = append(recs, st.pending[key].raw)
	}
	for _, key := range st.retained(d.idemCap) {
		recs = append(recs, st.completed[key].raw)
	}
	return d.journal.Rewrite(recs)
}

// --- checkpoints --------------------------------------------------------

// ckptPath names a job's checkpoint file. Idempotency keys are
// client-chosen strings, so they are hashed into fixed-width
// filesystem-safe names.
func (d *durable) ckptPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.jobDir, hex.EncodeToString(sum[:16])+".ckpt")
}

// writeCheckpoint atomically replaces the job's checkpoint file.
func (d *durable) writeCheckpoint(key string, snap []byte) error {
	path := d.ckptPath(key)
	var prev int64
	if info, err := os.Stat(path); err == nil {
		prev = info.Size()
	}
	if err := store.WriteFile(path, snap); err != nil {
		d.storeErrs.Add(1)
		return err
	}
	if info, err := os.Stat(path); err == nil {
		d.ckptBytes.Add(info.Size() - prev)
	}
	d.ckptWritten.Add(uint64(len(snap)))
	return nil
}

// readCheckpoint returns the job's latest checkpoint, or nil when none
// (or an unreadable one — resume falls back to instruction 0).
func (d *durable) readCheckpoint(key string) []byte {
	snap, err := store.ReadFile(d.ckptPath(key))
	if err != nil {
		return nil
	}
	return snap
}

func (d *durable) removeCheckpoint(key string) {
	path := d.ckptPath(key)
	if info, err := os.Stat(path); err == nil {
		if os.Remove(path) == nil {
			d.ckptBytes.Add(-info.Size())
		}
	}
}

// pruneCheckpoints removes checkpoint files with no pending journal
// entry (orphans from handlers that gave up while a worker kept
// checkpointing). Called once during recovery.
func (d *durable) pruneCheckpoints(st *journalState) {
	keep := make(map[string]bool, len(st.pending))
	for key := range st.pending {
		keep[filepath.Base(d.ckptPath(key))] = true
	}
	entries, err := os.ReadDir(d.jobDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !keep[e.Name()] {
			_ = os.Remove(filepath.Join(d.jobDir, e.Name()))
		}
	}
	d.ckptBytes.Store(dirBytes(d.jobDir))
}

// --- session spill ------------------------------------------------------

func (d *durable) sessPath(id string) string {
	return filepath.Join(d.sessDir, id+".key")
}

// saveSession spills a registered key bundle to the disk tier,
// evicting the stalest spilled sessions when over budget. A bundle
// larger than the whole budget is simply not spilled — the session
// still serves from RAM, it just will not survive a restart.
func (d *durable) saveSession(id string, raw []byte) error {
	if !api.ValidID(id) {
		d.storeErrs.Add(1)
		return fmt.Errorf("serve: invalid session id %q", id)
	}
	if int64(len(raw)) > d.budget {
		d.storeErrs.Add(1)
		return fmt.Errorf("serve: bundle of %d bytes exceeds the disk budget of %d", len(raw), d.budget)
	}
	if err := store.WriteFile(d.sessPath(id), raw); err != nil {
		d.storeErrs.Add(1)
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sessBytes = dirBytes(d.sessDir)
	d.evictSessionsLocked(id)
	return nil
}

// evictSessionsLocked removes oldest-used session files (mtime order,
// refreshed on load) until the disk tier fits its budget, never
// touching the id just written.
func (d *durable) evictSessionsLocked(keep string) {
	if d.sessBytes <= d.budget {
		return
	}
	entries, err := os.ReadDir(d.sessDir)
	if err != nil {
		return
	}
	type fileAge struct {
		name string
		size int64
		mod  int64
	}
	var files []fileAge
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		files = append(files, fileAge{e.Name(), info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		if d.sessBytes <= d.budget {
			return
		}
		if f.name == keep+".key" {
			continue
		}
		if os.Remove(filepath.Join(d.sessDir, f.name)) == nil {
			d.sessBytes -= f.size
		}
	}
}

// loadSession reads a spilled key bundle back, bumping its mtime so
// disk eviction approximates LRU.
func (d *durable) loadSession(id string) ([]byte, error) {
	if !api.ValidID(id) {
		return nil, fmt.Errorf("serve: invalid session id %q: %w", id, os.ErrNotExist)
	}
	raw, err := store.ReadFile(d.sessPath(id))
	if err != nil {
		return nil, err
	}
	now := time.Now()
	_ = os.Chtimes(d.sessPath(id), now, now)
	return raw, nil
}

func (d *durable) dropSession(id string) bool {
	if !api.ValidID(id) {
		return false
	}
	path := d.sessPath(id)
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	if os.Remove(path) != nil {
		return false
	}
	d.mu.Lock()
	d.sessBytes -= info.Size()
	d.mu.Unlock()
	return true
}

// sessionIDs lists the session ids spilled under sessDir, for
// membership re-replication (the disk tier outlives the RAM cache, so
// it is the authoritative enumeration of what this shard holds).
func (d *durable) sessionIDs() []string {
	entries, err := os.ReadDir(d.sessDir)
	if err != nil {
		return nil
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".key") {
			continue
		}
		id := strings.TrimSuffix(name, ".key")
		if api.ValidID(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// diskBytes reports the durable layer's total footprint for statz.
func (d *durable) diskBytes() int64 {
	d.mu.Lock()
	sess := d.sessBytes
	journal := d.journal.Size()
	d.mu.Unlock()
	return sess + journal + d.ckptBytes.Load()
}

func (d *durable) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = d.journal.Close()
}
