package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"netdebug/internal/core"
)

// SchemaVersion is the version stamped on every emitted record. Readers
// must reject records with a version they do not understand. Version 1
// carried the session header's spec and host as base64 gob blobs; 2
// carries them as JSON objects.
const SchemaVersion = 2

// Record is one line of a session's versioned JSONL event stream. Field
// order is fixed by this struct, map-valued fields are marshalled with
// sorted keys (encoding/json), and no wall-clock value ever enters a
// record — together these make the byte stream of a session a pure
// function of its spec, which is what the replay harness asserts.
//
// Record types: "session" (block header, carries the spec and host
// config for replay), "fault" (a fault-plan event applied),
// "churn" (one round's control-plane churn), "report" (one round's
// validation report), "probe" (one round's external probe leg), "slo"
// (end-of-session latency percentiles vs bound), "end" (block footer).
type Record struct {
	Schema  int    `json:"schema"`
	Type    string `json:"type"`
	Session string `json:"session"`
	// Seq is the record's index within its session block.
	Seq   int `json:"seq"`
	Round int `json:"round,omitempty"`
	// AtNs is session-relative virtual time (device clock at emission
	// minus device clock at session start).
	AtNs    int64  `json:"at_ns,omitempty"`
	Target  string `json:"target,omitempty"`
	Program string `json:"program,omitempty"`
	// Spec/Host carry the SessionSpec and HostConfig as JSON on "session"
	// records — everything Replay needs to re-execute the block on a
	// fresh system.
	Spec   json.RawMessage `json:"spec,omitempty"`
	Host   json.RawMessage `json:"host,omitempty"`
	Fault  *FaultRecord    `json:"fault,omitempty"`
	Churn  *ChurnRecord    `json:"churn,omitempty"`
	Report *core.Report    `json:"report,omitempty"`
	Probe  *ProbeRecord    `json:"probe,omitempty"`
	SLO    *SLORecord      `json:"slo,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// FaultRecord is one applied fault-plan event.
type FaultRecord struct {
	Kind   string `json:"kind"`
	Port   int    `json:"port,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Table  string `json:"table,omitempty"`
	Budget int    `json:"budget,omitempty"`
	Count  int    `json:"count,omitempty"`
}

// ChurnRecord summarizes one round of control-plane churn.
type ChurnRecord struct {
	// Installed/Deleted count writes that landed; denied writes are
	// rejected by injected control-plane faults (after any client-side
	// retry) and are the session's graceful-degradation signal.
	Installed      int `json:"installed"`
	Deleted        int `json:"deleted"`
	DeniedInstalls int `json:"denied_installs,omitempty"`
	DeniedDeletes  int `json:"denied_deletes,omitempty"`
	// Live is the driver's entry count after the round.
	Live int `json:"live"`
	// Denials breaks the round's injector rejections down by fault kind
	// (flapped-then-retried attempts count once per failed attempt).
	Denials map[string]uint64 `json:"denials,omitempty"`
}

// ProbeRecord is one round's external probe leg: what a tester on the
// device's front-panel ports observes, which is where interface faults
// (port-down, queue-stuck) become visible. All values are per-round
// deltas, never absolute counters, so they are host-history independent.
type ProbeRecord struct {
	Sent int `json:"sent"`
	// Captured maps egress port (decimal string) to frames captured
	// this round; zero-count ports are omitted.
	Captured map[string]int `json:"captured,omitempty"`
	// RxLost counts probe frames lost to a downed ingress link.
	RxLost uint64 `json:"rx_lost,omitempty"`
	// TxLost counts frames lost on egress (downed link + queue drops).
	TxLost uint64 `json:"tx_lost,omitempty"`
	// QueueOccupancy maps port to frames frozen in its stuck queue.
	QueueOccupancy map[string]int `json:"queue_occupancy,omitempty"`
}

// SLORecord is the end-of-session latency objective verdict, computed
// from the session's own histogram (every forwarded packet the device
// processed during the session, across all rounds).
type SLORecord struct {
	Count   uint64 `json:"count"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
	MaxNs   int64  `json:"max_ns"`
	BoundNs int64  `json:"bound_ns,omitempty"`
	Pass    bool   `json:"pass"`
}

// Recorder serializes session blocks to one JSONL stream in canonical
// order. Sessions complete concurrently, so blocks are buffered and
// flushed strictly by submission index — the stream's bytes are
// independent of worker count and completion order.
type Recorder struct {
	mu      sync.Mutex
	w       io.Writer
	pending map[int][]Record
	next    int
	nextIdx int
	err     error
}

// NewRecorder writes session blocks to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, pending: make(map[int][]Record)}
}

// reserveN hands out n consecutive submission indices, returning the
// first.
func (r *Recorder) reserveN(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.nextIdx
	r.nextIdx += n
	return idx
}

// commit stores a completed session block and flushes every block whose
// turn has come.
func (r *Recorder) commit(idx int, recs []Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.pending[idx] = recs
	for {
		block, ok := r.pending[r.next]
		if !ok {
			return nil
		}
		delete(r.pending, r.next)
		for i := range block {
			line, err := json.Marshal(&block[i])
			if err == nil {
				_, err = r.w.Write(append(line, '\n'))
			}
			if err != nil {
				r.err = fmt.Errorf("session: recording block %d: %w", r.next, err)
				return r.err
			}
		}
		r.next++
	}
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ParseStream decodes a recorded JSONL stream, skipping empty lines and
// rejecting records with an unknown schema version. An error names the
// stream's physical line, blank lines counted.
func ParseStream(stream []byte) ([]Record, error) {
	var out []Record
	for i, raw := range bytes.Split(stream, []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("session: stream line %d: %w", i+1, err)
		}
		if rec.Schema != SchemaVersion {
			return nil, fmt.Errorf("session: stream line %d: schema %d, want %d", i+1, rec.Schema, SchemaVersion)
		}
		out = append(out, rec)
	}
	return out, nil
}
