package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"os"
	"strings"
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

// TestUnregisteredPayloadEndsConnection: a stream naming a gob type the
// agent's process never registered cannot be decoded past that point, so
// it ends its connection — and only that: the listener and the agent
// serve the next one.
func TestUnregisteredPayloadEndsConnection(t *testing.T) {
	gob.RegisterName("netdebug/internal/core.known-stranger", stranger{})
	var stream bytes.Buffer
	if err := gob.NewEncoder(&stream).Encode(&control.Request{ID: 1, Kind: control.ReqConfigureGen, Payload: stranger{N: 7}}); err != nil {
		t.Fatal(err)
	}
	hostile := bytes.Replace(stream.Bytes(), []byte("known-stranger"), []byte("other-stranger"), 1)
	if bytes.Equal(hostile, stream.Bytes()) {
		t.Fatal("fixture: the registered name is not in the stream")
	}

	agent := kindAgent(t, target.KindReference)
	addr := listen(t, agent)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(hostile); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the agent kept an undecodable stream open: read %d bytes, %v", n, err)
	}

	cli, err := control.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(cli)
	defer ctl.Close()
	if rep, err := ctl.RunTest(threeStreamSpec(64)); err != nil || !rep.Pass {
		t.Fatalf("the next connection: %v %v", rep, err)
	}
}
