package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The durable record format. The job journal (jobs.log) and the
// replication stream (POST /v1/replica) carry the same records, and a
// settled result is the same bytes in both: encoded once when the job
// completes, appended to the local journal, shipped as they are, and
// appended unchanged to the replica's journal. A record is its kind
// byte, the key as a uint16-length-prefixed string, the kind's fixed
// fields, then a trailing opaque payload. A kind number once written is
// never given another layout.
const (
	// recAccept journals an admitted idempotent job: key, session id
	// (string), deadline (u64 unix ms, 0 = none), input ciphertext.
	// Journal only.
	recAccept = 1
	// recRetired was the lane-less completion older journals wrote (and
	// older replication streams shipped it with a lane). It is refused,
	// never reinterpreted.
	recRetired = 2
	// recForget journals a job whose attempt died: key. Journal only — a
	// forget crossing another shard's settled result would destroy it.
	recForget = 3
	// recComplete settles a job: key, lane u16, stride u16, result
	// ciphertext. A solo result writes lane 0, stride 0.
	recComplete = 4
	// recSession replicates a registered key bundle: session id (as the
	// key), bundle. Replication only.
	recSession = 5
)

// record is one decoded record. key names the job, or the session of a
// recSession; body is the trailing payload (input ciphertext, result
// ciphertext or key bundle) and aliases raw, the record's encoding.
type record struct {
	kind       byte
	key        string
	sessID     string // recAccept
	deadlineMs int64  // recAccept
	lane       int    // recComplete
	stride     int    // recComplete
	body       []byte
	raw        []byte
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readString(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, errors.New("truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	if len(data) < n {
		return "", nil, fmt.Errorf("string of %d bytes in %d", n, len(data))
	}
	return string(data[:n]), data[n:], nil
}

// encode frames r and returns it as decodeRecord would read it back:
// raw set, body aliasing raw's tail. What the framing cannot hold is
// refused, never truncated — a misframed record would brick the next
// startup's replay.
func (r record) encode() (record, error) {
	if len(r.key) > math.MaxUint16 || len(r.sessID) > math.MaxUint16 {
		return record{}, fmt.Errorf("serve: record string exceeds %d bytes", math.MaxUint16)
	}
	buf := make([]byte, 0, 17+len(r.key)+len(r.sessID)+len(r.body))
	buf = appendString(append(buf, r.kind), r.key)
	switch r.kind {
	case recAccept:
		buf = appendString(buf, r.sessID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.deadlineMs))
	case recComplete:
		if r.lane < 0 || r.lane > math.MaxUint16 || r.stride < 0 || r.stride > math.MaxUint16 {
			return record{}, fmt.Errorf("serve: lane %d/stride %d out of range", r.lane, r.stride)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.lane))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.stride))
	case recForget, recSession:
	default:
		return record{}, fmt.Errorf("serve: record kind %d has no layout", r.kind)
	}
	buf = append(buf, r.body...)
	r.raw, r.body = buf, buf[len(buf)-len(r.body):]
	return r, nil
}

// decodeRecord parses one record, a frame payload that already passed
// the store layer's CRC. Every record it accepts re-encodes to exactly
// raw.
func decodeRecord(raw []byte) (record, error) {
	if len(raw) == 0 {
		return record{}, errors.New("serve: empty record")
	}
	r := record{kind: raw[0], raw: raw}
	switch r.kind {
	case recAccept, recForget, recComplete, recSession:
	case recRetired:
		return record{}, fmt.Errorf("serve: record kind %d (lane-less completion) is retired", r.kind)
	default:
		return record{}, fmt.Errorf("serve: unknown record kind %d", r.kind)
	}
	key, rest, err := readString(raw[1:])
	if err == nil && r.kind == recAccept {
		r.sessID, rest, err = readString(rest)
	}
	if err != nil {
		return record{}, fmt.Errorf("serve: record kind %d: %w", r.kind, err)
	}
	r.key = key
	switch {
	case r.kind == recAccept && len(rest) >= 8:
		r.deadlineMs = int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	case r.kind == recComplete && len(rest) >= 4:
		r.lane = int(binary.LittleEndian.Uint16(rest))
		r.stride = int(binary.LittleEndian.Uint16(rest[2:]))
		rest = rest[4:]
	case r.kind == recAccept || r.kind == recComplete:
		return record{}, fmt.Errorf("serve: record kind %d: truncated fixed fields", r.kind)
	}
	r.body = rest
	return r, nil
}
