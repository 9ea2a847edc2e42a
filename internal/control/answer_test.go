package control

import (
	"encoding/gob"
	"reflect"
	"testing"

	"netdebug/internal/dataplane"
)

// testReport stands in for a checker's report: a registered payload of
// nested values.
type testReport struct {
	Injected uint64
	Rules    []testRule
	Pass     bool
}

type testRule struct {
	Name       string
	Pass, Fail uint64
}

func init() { gob.Register(&testReport{}) }

// answerTo is the request FuzzClient's answers answer: a one-entry write.
func answerTo() *Request {
	return &Request{ID: 1, Kind: ReqInstallEntry, Entries: make([]dataplane.Entry, 1)}
}

// clientSeeds are FuzzClient's seed corpus (testdata/fuzz/FuzzClient holds
// the same bytes), each with whether the client accepts it.
func clientSeeds() map[string]struct {
	data []byte
	ok   bool
} {
	frame := func(resp *Response) []byte { return new(server).appendAnswer(nil, 1, resp) }
	report := frame(&Response{Payload: &testReport{Injected: 64, Rules: []testRule{{"fwd", 63, 1}}}})
	flags := frame(&Response{Done: 1})
	flags[1] = flagRetryable + 1
	return map[string]struct {
		data []byte
		ok   bool
	}{
		"write":     {frame(&Response{Done: 1}), true},
		"hello":     {frame(&Response{Hello: &HelloInfo{TargetName: "tofino", ProgramName: "router", NumPorts: 4}}), true},
		"report":    {report, true},
		"truncated": {report[:len(report)-3], false},
		"flags":     {flags, false},
	}
}

// TestFuzzClientSeeds: each seed is committed as built, and the client
// takes each accepted one as the answer it was built from and refuses the
// others.
func TestFuzzClientSeeds(t *testing.T) {
	for name, c := range clientSeeds() {
		committed(t, "FuzzClient", name, c.data)
		resp, err := new(Client).answer(answerTo(), c.data)
		if (err == nil) != c.ok {
			t.Errorf("%s: answer = %+v, %v; want accepted %v", name, resp, err, c.ok)
		}
	}
	resp, err := new(Client).answer(answerTo(), clientSeeds()["report"].data)
	if want := (&testReport{Injected: 64, Rules: []testRule{{"fwd", 63, 1}}}); err != nil || !reflect.DeepEqual(resp.Payload, want) {
		t.Fatalf("report answer = %+v, %v", resp, err)
	}
}

// FuzzClient feeds arbitrary bytes to the client as the agent's answer
// frame to a one-entry write. The client must not panic, and must refuse
// the frame or return an answer it can stand behind: the request's ID, a
// Done that counts at most the write's one entry and names it when the
// write failed, and one that the agent's encoder would send as a frame the
// client takes back the same.
func FuzzClient(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := new(Client).answer(answerTo(), data)
		if err != nil {
			return
		}
		if resp.ID != 1 || resp.Done < 0 || resp.Done > 1 || !resp.OK() && resp.Done == 1 {
			t.Fatalf("accepted a malformed answer: %+v", resp)
		}
		back, err := new(Client).answer(answerTo(), new(server).appendAnswer(nil, 1, resp))
		if err != nil || back.Err != resp.Err || back.Done != resp.Done || back.Retryable != resp.Retryable {
			t.Fatalf("answer %+v re-encoded reads as %+v, %v", resp, back, err)
		}
	})
}
