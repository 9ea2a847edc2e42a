package control

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
)

// TestWriteChunks: a write longer than maxBatch goes maxBatch entries to a
// request, in order, and an entry refused in a later request is named by
// its index in the whole write.
func TestWriteChunks(t *testing.T) {
	var sizes []int
	next := 0
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		sizes = append(sizes, len(req.Entries))
		for i, e := range req.Entries {
			if e.Priority != next || e.Table == "refused" {
				return &Response{Err: "refused " + e.Table, Done: i}
			}
			next++
		}
		return &Response{Done: len(req.Entries)}
	}))
	defer cli.Close()
	entries := make([]dataplane.Entry, 2*maxBatch+10)
	for i := range entries {
		entries[i] = dataplane.Entry{Table: "t", Priority: i}
	}
	if done, err := cli.Write(ReqInstallEntry, entries); done != len(entries) || err != nil {
		t.Fatalf("write = %d, %v", done, err)
	}
	if want := []int{maxBatch, maxBatch, 10}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("requests of %v entries, want %v", sizes, want)
	}

	sizes, next = nil, 0
	entries[maxBatch+5].Table = "refused"
	done, err := cli.Write(ReqDeleteEntry, entries)
	if want := "entry 4101 (refused): control: refused refused"; done != maxBatch+5 || err == nil || err.Error() != want {
		t.Fatalf("write = %d, %v; want %d, %s", done, err, maxBatch+5, want)
	}
	if want := []int{maxBatch, maxBatch}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("requests of %v entries, want %v", sizes, want)
	}
}

// TestWriteRefusesFailureAfterEveryEntry: an error answer whose Done
// counts every entry sent names no entry, so the client treats it as a
// protocol mismatch and breaks, rather than indexing past the write.
func TestWriteRefusesFailureAfterEveryEntry(t *testing.T) {
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		return &Response{Err: "late failure", Done: len(req.Entries)}
	}))
	defer cli.Close()
	done, err := cli.Write(ReqInstallEntry, []dataplane.Entry{{Table: "t"}})
	if done != 0 || err == nil || !strings.Contains(err.Error(), "match") {
		t.Fatalf("write = %d, %v; want 0 and a match error", done, err)
	}
	if _, err := cli.ReadStatus(); !errors.Is(err, ErrChannelBroken) {
		t.Fatalf("call after the mismatch = %v, want ErrChannelBroken", err)
	}
}

// TestServeDropsOversizedWrite: a request that declares more than
// maxBatch entries ends the connection before any entry is decoded, so
// no peer can make the agent hold an arbitrarily large write. The handler
// never sees it.
func TestServeDropsOversizedWrite(t *testing.T) {
	seen := 0
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		seen++
		return &Response{Done: len(req.Entries)}
	}))
	defer cli.Close()
	_, err := cli.Call(&Request{Kind: ReqInstallEntry, Entries: make([]dataplane.Entry, maxBatch+1)})
	if err == nil || seen != 0 {
		t.Fatalf("oversized write: %v, handler saw %d requests", err, seen)
	}
	if _, err := cli.ReadStatus(); !errors.Is(err, ErrChannelBroken) {
		t.Fatalf("call after the dropped write = %v, want ErrChannelBroken", err)
	}
}

// TestServeClearsReusedEntries: Serve decodes every request into the same
// storage, and gob sends no zero field, so each entry must start from
// zero — a Priority, a key or a table left by the request before must not
// leak into the next — while a copy the handler kept of an earlier
// request's entries is what that request sent.
func TestServeClearsReusedEntries(t *testing.T) {
	var kept []dataplane.Entry
	var tables []string
	cli := Pipe(handlerFunc(func(req *Request) *Response {
		kept = append(kept, keep(req.Entries)...)
		tables = append(tables, req.Table)
		return &Response{Done: len(req.Entries)}
	}))
	defer cli.Close()
	full := dataplane.Entry{
		Table: "acl", Priority: 7, Action: "allow",
		Keys: []dataplane.KeyValue{{Value: bitfield.New(0x0a000001, 32), Mask: bitfield.New(0xffffffff, 32)}},
		Args: []bitfield.Value{bitfield.New(3, 9)},
	}
	if _, err := cli.Write(ReqInstallEntry, []dataplane.Entry{full, full}); err != nil {
		t.Fatal(err)
	}
	if err := cli.ClearTable("acl"); err != nil {
		t.Fatal(err)
	}
	if err := cli.InstallEntry(dataplane.Entry{Table: "bare"}); err != nil {
		t.Fatal(err)
	}
	if got := kept[2]; !reflect.DeepEqual(got, dataplane.Entry{Table: "bare"}) {
		t.Errorf("a bare entry after a full one arrived as %+v", got)
	}
	if want := []string{"", "acl", ""}; !reflect.DeepEqual(tables, want) {
		t.Errorf("request tables %q, want %q", tables, want)
	}
	for _, e := range kept[:2] {
		if e.Priority != 7 || !e.Keys[0].Value.Equal(full.Keys[0].Value) || !e.Args[0].Equal(full.Args[0]) {
			t.Errorf("an entry kept from the first request changed: %+v", e)
		}
	}
}

// serveBytes runs Serve over a net.Pipe whose peer writes data and reads
// every response. Once the peer has written it all, Serve's read deadline
// fires, so Serve ends on it at the latest, mid-message or not.
func serveBytes(data []byte, h Handler) error {
	peer, srv := net.Pipe()
	go io.Copy(io.Discard, peer) //nolint: ends when the peer closes
	go func() {
		peer.Write(data)                //nolint: fails if Serve gave up first
		srv.SetReadDeadline(time.Now()) //nolint: as does this
	}()
	defer peer.Close()
	return Serve(srv, h)
}

// FuzzServe feeds arbitrary bytes to Serve as the peer's side of the
// connection. Serve must not panic, must end with an error, and must never
// hand its handler a request of more than maxBatch entries. The seed
// corpus under testdata/fuzz/FuzzServe is a valid write, the same write
// cut short, a frame whose length is over maxFrame, and several kinds of
// request back to back.
func FuzzServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		err := serveBytes(data, handlerFunc(func(req *Request) *Response {
			if len(req.Entries) > maxBatch {
				t.Errorf("handler got a request of %d entries", len(req.Entries))
			}
			return &Response{Done: len(req.Entries)}
		}))
		if err == nil {
			t.Fatal("Serve ended without an error")
		}
	})
}

// wireRequests is what a client sends for reqs, in order: each request's
// frame after its length, the payloads on one gob stream.
func wireRequests(t testing.TB, reqs ...Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	var c Client
	for i := range reqs {
		r := reqs[i]
		r.ID = uint64(i + 1)
		b, err := c.appendRequest(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(&buf, b)
	}
	return buf.Bytes()
}

// serveSeeds are FuzzServe's seed corpus (testdata/fuzz/FuzzServe holds
// the same bytes) and the request kinds Serve hands its handler for each.
func serveSeeds(t testing.TB) map[string]struct {
	data []byte
	want []ReqKind
} {
	route := dataplane.Entry{
		Table: "ipv4_lpm", Action: "ipv4_forward",
		Keys: []dataplane.KeyValue{{Value: bitfield.New(0x0a000000, 32), PrefixLen: 8}},
		Args: []bitfield.Value{bitfield.New(1, 9)},
	}
	write := wireRequests(t, Request{Kind: ReqInstallEntry, Entries: []dataplane.Entry{route, route}})
	return map[string]struct {
		data []byte
		want []ReqKind
	}{
		"write":     {write, []ReqKind{ReqInstallEntry}},
		"truncated": {write[:len(write)-20], nil},
		"oversized": {append(binary.AppendUvarint(nil, maxFrame+1), write...), nil},
		"interleaved": {wireRequests(t, Request{Kind: ReqHello}, Request{Kind: ReqInstallEntry, Entries: []dataplane.Entry{route}},
			Request{Kind: ReqClearTable, Table: "ipv4_lpm"}, Request{Kind: ReqDeleteEntry, Entries: []dataplane.Entry{route}},
			Request{Kind: ReqConfigureGen, Payload: []byte{1, 2}}),
			[]ReqKind{ReqHello, ReqInstallEntry, ReqClearTable, ReqDeleteEntry, ReqConfigureGen}},
	}
}

// committed checks that testdata/fuzz/<target> holds the seed name with
// the bytes data.
func committed(t *testing.T, target, name string, data []byte) {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte(")
	got, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if !ok || err != nil || got != string(data) {
		t.Errorf("%s/%s is not the seed %s builds: regenerate it", target, name, name)
	}
}

// TestFuzzServeSeeds: each seed is committed as built and reaches the
// handler as the requests it was built from, so the corpus starts the
// fuzzer on the paths it names.
func TestFuzzServeSeeds(t *testing.T) {
	for name, c := range serveSeeds(t) {
		committed(t, "FuzzServe", name, c.data)
		var got []ReqKind
		serveBytes(c.data, handlerFunc(func(req *Request) *Response {
			got = append(got, req.Kind)
			return &Response{Done: len(req.Entries)}
		}))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: handler saw %v, want %v", name, got, c.want)
		}
	}
}
