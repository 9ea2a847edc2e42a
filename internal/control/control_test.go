package control

import (
	"errors"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
)

// keep deep-copies entries a handler keeps: it may keep nothing of a
// request, whose keys and args the next request is decoded into.
func keep(es []dataplane.Entry) []dataplane.Entry {
	es = slices.Clone(es)
	for i := range es {
		es[i].Keys, es[i].Args = slices.Clone(es[i].Keys), slices.Clone(es[i].Args)
	}
	return es
}

// fakeHandler records requests and answers canned responses.
type fakeHandler struct {
	mu       sync.Mutex
	installs []dataplane.Entry
	spec     []byte
	ran      int
}

func (f *fakeHandler) Handle(req *Request) *Response {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Kind {
	case ReqHello:
		return &Response{Hello: &HelloInfo{TargetName: "sdnet", ProgramName: "router", NumPorts: 4}}
	case ReqInstallEntry:
		f.installs = append(f.installs, keep(req.Entries)...)
		return &Response{Done: len(req.Entries)}
	case ReqClearTable:
		if req.Table == "ghost" {
			return &Response{Err: "no table ghost"}
		}
		return &Response{}
	case ReqReadStatus:
		return &Response{Status: map[string]uint64{"parser.accept": 42}}
	case ReqReadResources:
		return &Response{Payload: []byte("resources-blob")}
	case ReqConfigureGen:
		f.spec, _ = req.Payload.([]byte)
		return &Response{}
	case ReqRunTest:
		f.ran++
		return &Response{}
	case ReqFetchReport:
		return &Response{Payload: []byte("report-blob")}
	}
	return nil
}

func TestPipeRoundTrip(t *testing.T) {
	h := &fakeHandler{}
	cli := Pipe(h)
	defer cli.Close()

	hello, err := cli.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if hello.TargetName != "sdnet" || hello.NumPorts != 4 {
		t.Fatalf("hello = %+v", hello)
	}

	entry := dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
		Args:   []bitfield.Value{bitfield.New(3, 9)},
	}
	if err := cli.InstallEntry(entry); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	if len(h.installs) != 1 {
		t.Fatalf("installs = %d", len(h.installs))
	}
	got := h.installs[0]
	h.mu.Unlock()
	// gob must round-trip bitfield values exactly.
	if !got.Keys[0].Value.Equal(entry.Keys[0].Value) || got.Keys[0].PrefixLen != 8 {
		t.Fatalf("entry key mangled: %+v", got.Keys[0])
	}
	if !got.Args[0].Equal(entry.Args[0]) || got.Args[0].Width() != 9 {
		t.Fatalf("entry args mangled: %+v", got.Args)
	}

	st, err := cli.ReadStatus()
	if err != nil || st["parser.accept"] != 42 {
		t.Fatalf("status = %v, %v", st, err)
	}

	// Payloads cross as the concrete type they were sent as ([]byte is
	// one gob registers itself).
	res, err := cli.ReadResources()
	if b, _ := res.([]byte); err != nil || string(b) != "resources-blob" {
		t.Fatalf("resources = %v, %v", res, err)
	}

	if err := cli.ConfigureGen([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := cli.RunTest(); err != nil {
		t.Fatal(err)
	}
	rep, err := cli.FetchReport()
	if b, _ := rep.([]byte); err != nil || string(b) != "report-blob" {
		t.Fatalf("report = %v, %v", rep, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ran != 1 || string(h.spec) != "\t\t\t" {
		t.Fatalf("handler state: ran=%d spec=%v", h.ran, h.spec)
	}
}

// TestReqKindString: every kind has its name, and a kind off either end
// of the table renders as its number.
func TestReqKindString(t *testing.T) {
	for kind, want := range map[ReqKind]string{
		ReqHello: "hello", ReqInstallEntry: "install-entry", ReqClearTable: "clear-table",
		ReqReadStatus: "read-status", ReqConfigureGen: "configure-gen", ReqRunTest: "run-test",
		ReqFetchReport: "fetch-report", ReqReadResources: "read-resources", ReqDeleteEntry: "delete-entry",
		0: "req(0)", ReqDeleteEntry + 1: "req(10)", 255: "req(255)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("ReqKind(%d).String() = %q, want %q", uint8(kind), got, want)
		}
	}
}

func TestErrorResponses(t *testing.T) {
	cli := Pipe(&fakeHandler{})
	defer cli.Close()
	err := cli.ClearTable("ghost")
	if err == nil || err.Error() != "control: no table ghost" {
		t.Fatalf("err = %v", err)
	}
	// An error response must not poison the connection.
	if err := cli.ClearTable("real"); err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	h := &fakeHandler{}
	go ListenTCP(ln, h)

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	hello, err := cli.Hello()
	if err != nil || hello.ProgramName != "router" {
		t.Fatalf("hello over tcp: %+v, %v", hello, err)
	}
	// Second concurrent client.
	cli2, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli2.ReadStatus(); err != nil {
		t.Fatal(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestConcurrentCalls(t *testing.T) {
	cli := Pipe(&fakeHandler{})
	defer cli.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := cli.ReadStatus(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnhandledRequest(t *testing.T) {
	cli := Pipe(handlerFunc(func(req *Request) *Response { return nil }))
	defer cli.Close()
	resp, err := cli.Call(&Request{Kind: ReqKind(99)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK() {
		t.Fatal("unhandled request should produce an error response")
	}
}

type handlerFunc func(*Request) *Response

func (f handlerFunc) Handle(req *Request) *Response { return f(req) }

// TestCallTimeoutBreaksClient: a stalled agent trips the call deadline
// with a typed *TimeoutError, and because its answer is still owed, every
// later call fails fast wrapping ErrChannelBroken.
func TestCallTimeoutBreaksClient(t *testing.T) {
	release := make(chan struct{})
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		<-release // stall forever (until test cleanup)
		return &Response{}
	}))
	defer cli.Close()
	defer close(release)

	cli.SetCallTimeout(20 * time.Millisecond)
	_, err := cli.Call(&Request{Kind: ReqReadStatus})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Kind != ReqReadStatus || !te.Timeout() {
		t.Fatalf("timeout error = %+v", te)
	}
	if _, err := cli.Call(&Request{Kind: ReqHello}); !errors.Is(err, ErrChannelBroken) {
		t.Fatalf("call after timeout = %v, want ErrChannelBroken", err)
	}
}

// TestTimedOutPipeLeavesNoGoroutine: once a call has timed out on a
// stalled agent and the client is closed, the agent's goroutine returns
// as soon as the handler does.
func TestTimedOutPipeLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		<-release
		return &Response{}
	}))
	cli.SetCallTimeout(10 * time.Millisecond)
	var te *TimeoutError
	if _, err := cli.ReadStatus(); !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	close(release)
	cli.Close()
	awaitGoroutines(t, baseline)
}

// awaitGoroutines waits for the goroutines to fall back to baseline, and
// fails the test if they have not within ten seconds.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the client", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeCallAfterCloseFails: a call on a closed Pipe client fails, and
// its request never reaches the handler, whose goroutine has ended.
func TestPipeCallAfterCloseFails(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var seen atomic.Int32
	cli := Pipe(handlerFunc(func(*Request) *Response { seen.Add(1); return &Response{} }))
	cli.Close()
	if _, err := cli.Call(&Request{Kind: ReqHello}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("call after Close = %v, want net.ErrClosed", err)
	}
	awaitGoroutines(t, baseline)
	if n := seen.Load(); n != 0 {
		t.Fatalf("the handler saw %d requests sent after Close", n)
	}
}

// unregistered is a payload type gob was never told of.
type unregistered struct{ N int }

// TestOverLimitFramesFailAlone: on either transport, a request whose
// payload would take its frame over maxFrame, or cannot be encoded, fails
// before it is sent; an answer that would do either arrives as an error
// answer; and the channel goes on: the next payloads each way cross on
// gob streams that started over.
func TestOverLimitFramesFailAlone(t *testing.T) {
	refused := map[string]any{"over the limit": make([]byte, maxFrame), "not registered": unregistered{7}}
	var spec atomic.Int64 // the length of the last spec the handler got
	h := handlerFunc(func(req *Request) *Response {
		switch req.Kind {
		case ReqConfigureGen:
			b, _ := req.Payload.([]byte)
			spec.Store(int64(len(b)))
		case ReqReadResources:
			return &Response{Payload: refused[req.Table]}
		case ReqFetchReport:
			return &Response{Payload: &testReport{Injected: 64}}
		}
		return &Response{}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ListenTCP(ln, h)
	tcp, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for name, cli := range map[string]*Client{"pipe": Pipe(h), "tcp": tcp} {
		small := func(when string) {
			if err := cli.ConfigureGen([]byte{1, 2, 3}); err != nil || spec.Load() != 3 {
				t.Errorf("%s: the request %s: %v, handler got %d bytes", name, when, err, spec.Load())
			}
			if rep, err := cli.FetchReport(); err != nil || !reflect.DeepEqual(rep, &testReport{Injected: 64}) {
				t.Errorf("%s: the answer %s: %v %v", name, when, rep, err)
			}
		}
		small("before")
		for why, payload := range refused {
			spec.Store(-1)
			if err := cli.ConfigureGen(payload); err == nil || !strings.Contains(err.Error(), why) || errors.Is(err, ErrChannelBroken) || spec.Load() != -1 {
				t.Errorf("%s: a request %s: %v, handler got %d bytes", name, why, err, spec.Load())
			}
			if resp, err := cli.Call(&Request{Kind: ReqReadResources, Table: why}); err != nil || !strings.Contains(resp.Err, why) {
				t.Errorf("%s: an answer %s: %+v, %v", name, why, resp, err)
			}
			small("after one " + why)
		}
		cli.Close()
	}
}

// TestRetryableErrorsRetryWithBackoff: the client re-issues requests the
// agent marks retryable, with exponential backoff, and stops as soon as
// one attempt succeeds.
func TestRetryableErrorsRetryWithBackoff(t *testing.T) {
	var calls int
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		calls++
		if calls <= 2 {
			return &Response{Err: "install path flapping", Retryable: true}
		}
		return &Response{}
	}))
	defer cli.Close()

	var waits []time.Duration
	cli.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  15 * time.Millisecond,
		Sleep:       func(d time.Duration) { waits = append(waits, d) },
	})
	resp, err := cli.Call(&Request{Kind: ReqInstallEntry, Entries: []dataplane.Entry{{Table: "t"}}})
	if err != nil || !resp.OK() {
		t.Fatalf("call = %+v, %v", resp, err)
	}
	if calls != 3 {
		t.Fatalf("agent saw %d attempts, want 3", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond} // doubled then capped
	if len(waits) != len(want) || waits[0] != want[0] || waits[1] != want[1] {
		t.Fatalf("backoff waits = %v, want %v", waits, want)
	}
}

// TestRetryExhaustionSurfacesTransientError: when every attempt fails
// retryably, the final response error is a *RemoteError that still
// reports itself transient.
func TestRetryExhaustionSurfacesTransientError(t *testing.T) {
	var calls int
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		calls++
		return &Response{Err: "still flapping", Retryable: true}
	}))
	defer cli.Close()
	cli.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	err := cli.InstallEntry(dataplane.Entry{Table: "t"})
	if err == nil || calls != 3 {
		t.Fatalf("err = %v after %d calls, want failure after 3", err, calls)
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted retryable error not transient: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || !re.Retryable {
		t.Fatalf("err = %v, want retryable *RemoteError", err)
	}
}

// TestNonRetryableErrorNotRetried: permanent agent errors are returned
// on the first attempt even with a retry policy installed.
func TestNonRetryableErrorNotRetried(t *testing.T) {
	var calls int
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		calls++
		return &Response{Err: "no such table"}
	}))
	defer cli.Close()
	cli.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}})
	err := cli.ClearTable("ghost")
	if err == nil || calls != 1 {
		t.Fatalf("err = %v after %d calls, want 1 call", err, calls)
	}
	if IsTransient(err) {
		t.Fatalf("permanent error classified transient: %v", err)
	}
}

// TestDeleteEntryRoundTrip covers the new request kind end to end.
func TestDeleteEntryRoundTrip(t *testing.T) {
	var got []dataplane.Entry
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		if req.Kind != ReqDeleteEntry {
			return &Response{Err: "wrong kind " + req.Kind.String()}
		}
		got = append(got, keep(req.Entries)...)
		return &Response{Done: len(req.Entries)}
	}))
	defer cli.Close()
	e := dataplane.Entry{
		Table:  "ipv4_lpm",
		Keys:   []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Action: "ipv4_forward",
	}
	if err := cli.DeleteEntry(e); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Table != "ipv4_lpm" || got[0].Keys[0].PrefixLen != 8 {
		t.Fatalf("delete entry arrived as %+v", got)
	}
}
