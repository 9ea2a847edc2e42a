package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"netdebug/internal/control"
	"netdebug/internal/target"
)

// transports are the two ways a host reaches an agent's handler: the
// in-process pipe and a TCP listener on the loopback.
var transports = map[string]func(t *testing.T, h control.Handler) *control.Client{
	"pipe": func(t *testing.T, h control.Handler) *control.Client { return control.Pipe(h) },
	"tcp": func(t *testing.T, h control.Handler) *control.Client {
		cli, err := control.DialTCP(listen(t, h))
		if err != nil {
			t.Fatal(err)
		}
		return cli
	},
}

// listen serves h on a loopback listener for the rest of the test.
func listen(t *testing.T, h control.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go control.ListenTCP(ln, h)
	return ln.Addr().String()
}

// crossed answers the two payload-bearing reads with each other's type
// and leaves everything else to the agent.
type crossed struct{ *Agent }

func (c crossed) Handle(req *control.Request) *control.Response {
	switch req.Kind {
	case control.ReqFetchReport:
		return &control.Response{Payload: target.ResourceReport{}}
	case control.ReqReadResources:
		return &control.Response{Payload: &Report{}}
	}
	return c.Agent.Handle(req)
}

// TestHostilePayloads: a payload is whatever registered type the peer
// chose to send. One that is missing or of the wrong kind is refused by
// whoever reads it — the agent for a request, the controller for an
// answer — in an error that names the request kind, and the agent goes
// on serving the same connection.
func TestHostilePayloads(t *testing.T) {
	spec := threeStreamSpec(64)
	for name, dial := range transports {
		agent := kindAgent(t, target.KindReference)
		cli := dial(t, crossed{agent})
		ctl := NewController(cli)
		for _, c := range []struct {
			what string
			call func() error
		}{
			{"configure-gen without a payload", func() error { return cli.ConfigureGen(nil) }},
			{"configure-gen with a report", func() error { return cli.ConfigureGen(&Report{}) }},
			{"configure-gen with bare bytes", func() error { return cli.ConfigureGen([]byte("garbage")) }},
			{"fetch-report answered wrongly", func() error { _, err := ctl.RunTest(spec); return err }},
			{"read-resources answered wrongly", func() error { _, err := ctl.Resources(); return err }},
		} {
			kind, _, _ := strings.Cut(c.what, " ")
			if err := c.call(); err == nil || !strings.Contains(err.Error(), kind) {
				t.Errorf("%s: %s: error %v does not name %s", name, c.what, err, kind)
			}
		}
		// The crossed fetch came after a configure and a run that worked.
		if rep := agent.LastReport(); rep == nil || rep.Injected != 64 || !rep.Pass {
			t.Errorf("%s: the agent did not run the spec it was sent: %v", name, rep)
		}
		if hello, err := ctl.Hello(); err != nil || hello.TargetName != target.KindReference {
			t.Errorf("%s: the connection did not survive: %+v %v", name, hello, err)
		}
		ctl.Close()
	}
}

// stranger is registered for interface transmission under one name and
// sent under another that nothing registered.
type stranger struct{ N int }

// renaming is a connection that sends every old in what it writes as new.
type renaming struct {
	net.Conn
	old, new []byte
	renamed  int
}

func (c *renaming) Write(b []byte) (int, error) {
	c.renamed += bytes.Count(b, c.old)
	return c.Conn.Write(bytes.ReplaceAll(b, c.old, c.new))
}

// TestUnregisteredPayloadEndsConnection: a payload naming a gob type the
// agent's process never registered cannot be decoded, and leaves the
// connection's gob stream unreadable past it, so it ends its connection —
// the client reads the end of the stream, not an error answer — and only
// that: the listener and the agent serve the next one.
func TestUnregisteredPayloadEndsConnection(t *testing.T) {
	gob.RegisterName("netdebug/internal/core.known-stranger", stranger{})
	agent := kindAgent(t, target.KindReference)
	addr := listen(t, agent)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hostile := &renaming{Conn: conn, old: []byte("known-stranger"), new: []byte("other-stranger")}
	cli := control.NewClient(hostile)
	defer cli.Close()
	cli.SetCallTimeout(10 * time.Second)
	err = cli.ConfigureGen(stranger{N: 7})
	if hostile.renamed != 1 {
		t.Fatalf("fixture: the registered name crossed %d times", hostile.renamed)
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("the agent kept an undecodable stream open: %v", err)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("the connection is still open: read %d bytes, %v", n, err)
	}

	cli, err = control.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(cli)
	defer ctl.Close()
	if rep, err := ctl.RunTest(threeStreamSpec(64)); err != nil || !rep.Pass {
		t.Fatalf("the next connection: %v %v", rep, err)
	}
}

// TestConnectionsShareOneAgent: a listener serves each connection on a
// goroutine of its own, so table writes on one connection meet test runs
// on another at the same agent, which must serve them one at a time: the
// race detector sees a write land in the tables a run is reading
// otherwise.
func TestConnectionsShareOneAgent(t *testing.T) {
	addr := listen(t, kindAgent(t, target.KindReference))
	dial := func() *Controller {
		cli, err := control.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return NewController(cli)
	}
	runner, writer := dial(), dial()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := writeRoute(1) // the route the spec's frames take
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := writer.InstallEntry(e); err != nil {
				t.Error(err)
				return
			}
			if err := writer.DeleteEntry(e); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	spec := threeStreamSpec(256)
	for range 20 {
		if rep, err := runner.RunTest(spec); err != nil || !rep.Pass {
			t.Errorf("run beside the writes: %v %v", rep, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
