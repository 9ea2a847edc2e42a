package session

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Replay re-executes a recorded stream: each session block's embedded
// spec and host config are decoded and the session is run again on a
// freshly booted host. It returns the re-recorded stream, which the
// determinism contract (docs/robustness.md) requires to be
// byte-identical to the input — ReplayCheck asserts exactly that.
//
// Managers are keyed by host config, so a stream whose sessions share a
// config replays on one pool, exercising the same warm-host restore
// path as the original run.
func Replay(stream []byte) ([]byte, error) {
	recs, err := ParseStream(stream)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	rec := NewRecorder(&out)
	managers := make(map[string]*Manager)
	defer func() {
		for _, m := range managers {
			m.Close()
		}
	}()
	blocks := 0
	for _, r := range recs {
		if r.Type != "session" {
			continue
		}
		blocks++
		var spec SessionSpec
		if err := json.Unmarshal(r.Spec, &spec); err != nil {
			return nil, fmt.Errorf("session: replay block %d (%s): decoding spec: %w", blocks, r.Session, err)
		}
		var cfg HostConfig
		if err := json.Unmarshal(r.Host, &cfg); err != nil {
			return nil, fmt.Errorf("session: replay block %d (%s): decoding host config: %w", blocks, r.Session, err)
		}
		m, ok := managers[string(r.Host)]
		if !ok {
			m, err = NewManager(cfg, 1, rec)
			if err != nil {
				return nil, fmt.Errorf("session: replay block %d (%s): %w", blocks, r.Session, err)
			}
			managers[string(r.Host)] = m
		}
		if _, err := m.Run(spec); err != nil {
			return nil, fmt.Errorf("session: replay block %d (%s): %w", blocks, r.Session, err)
		}
	}
	if blocks == 0 {
		return nil, fmt.Errorf("session: stream contains no session blocks")
	}
	if err := rec.Err(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ReplayCheck replays a stream and verifies the re-recorded stream is
// byte-identical, returning the first diverging line on mismatch.
func ReplayCheck(stream []byte) error {
	replayed, err := Replay(stream)
	if err != nil {
		return err
	}
	if bytes.Equal(replayed, stream) {
		return nil
	}
	want := bytes.Split(stream, []byte("\n"))
	got := bytes.Split(replayed, []byte("\n"))
	for i := 0; i < len(want) && i < len(got); i++ {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("session: replay diverged at line %d:\n recorded: %s\n replayed: %s",
				i+1, want[i], got[i])
		}
	}
	return fmt.Errorf("session: replay stream length differs: recorded %d lines, replayed %d",
		len(want), len(got))
}
