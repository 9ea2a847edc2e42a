// Package control implements the dedicated management channel between the
// NetDebug software tool on the host computer and the agent inside the
// network device.
//
// The paper's architecture gives the host tool a dedicated interface "to
// configure the generation of test packets and to collect test results";
// this package is that interface. The protocol is a synchronous
// request/response RPC of one hand-written frame each way, after its
// length, on a net.Conn: TCP for cmd/netdebug, a buffer each way for Pipe
// in process.
//
// Payloads that belong to higher layers (generator and checker
// specifications, test reports, resource reports) travel in one Payload
// field each way, as whichever concrete type its owner gob.Registered:
// they, with an answer's Hello and Status, are a frame's only gob, on one
// encoder and decoder each way, so a type's description crosses once per
// connection, and this package stays free of dependencies on the core
// engine and the target models.
//
// A table write is a batch: up to maxBatch entries to a request, applied
// in order up to the first failure, with Done counting those applied. A
// single-entry call is a batch of one. Its entries are one compact block
// (appendEntries) after the request frame's head.
package control

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"netdebug/internal/bitfield"
	"netdebug/internal/dataplane"
)

// ReqKind enumerates request types.
type ReqKind uint8

// Request kinds.
const (
	ReqHello ReqKind = iota + 1
	ReqInstallEntry
	ReqClearTable
	ReqReadStatus
	ReqConfigureGen
	ReqRunTest
	ReqFetchReport
	ReqReadResources
	ReqDeleteEntry
)

// reqNames is the one table of request-kind names.
var reqNames = [...]string{
	ReqHello: "hello", ReqInstallEntry: "install-entry",
	ReqClearTable: "clear-table", ReqReadStatus: "read-status",
	ReqConfigureGen: "configure-gen", ReqRunTest: "run-test",
	ReqFetchReport: "fetch-report", ReqReadResources: "read-resources",
	ReqDeleteEntry: "delete-entry",
}

// String names the request kind.
func (k ReqKind) String() string {
	if int(k) < len(reqNames) && reqNames[k] != "" {
		return reqNames[k]
	}
	return fmt.Sprintf("req(%d)", uint8(k))
}

// maxBatch is the most entries one request carries, and maxFrame the
// longest frame either way: a 4 MiB entries block, 1 KiB an entry at a
// full batch, and its head. Serve drops a frame that asks more, which
// bounds what a peer makes it read and decode, and the client does the
// same with an answer. Neither side builds one: a request over it fails
// alone, and an answer over it becomes an error answer.
const maxBatch, maxFrame = 4096, 1<<22 + 1<<12

// headroom is what a frame's buffer keeps in front of it for its length.
const headroom = binary.MaxVarintLen32

const flagRetryable = 1 // an answer frame's one flag

// Request is one host-to-device message.
type Request struct {
	ID   uint64
	Kind ReqKind
	// Entries are a write's (ReqInstallEntry, ReqDeleteEntry), in order.
	Entries []dataplane.Entry
	Table   string
	// Payload carries the generator+checker test specification
	// (*core.TestSpec) for ReqConfigureGen. A request with entries
	// carries none.
	Payload any
}

// HelloInfo describes the device.
type HelloInfo struct {
	TargetName  string
	ProgramName string
	NumPorts    int
}

// Response is one device-to-host message.
type Response struct {
	ID  uint64
	Err string
	// Done counts the entries a write applied before the one Err is about.
	Done int
	// Retryable marks an error response as transient: the operation
	// failed for a reason the agent expects to clear (a flapping install
	// path, a momentarily exhausted resource), so the host may re-issue
	// it, a write from entry Done on, as the client's retry policy does.
	Retryable bool
	Hello     *HelloInfo
	Status    map[string]uint64
	// Payload carries the *core.Report for ReqFetchReport and the
	// target.ResourceReport for ReqReadResources.
	Payload any
}

// body is the gob value that follows a frame's head, if anything does, in
// an answer or in a request without entries.
type body struct {
	Hello   *HelloInfo
	Status  map[string]uint64
	Payload any
}

// OK reports whether the response carries no error.
func (r *Response) OK() bool { return r.Err == "" }

// Error converts the response error string to an error value. Error
// responses come back as *RemoteError, preserving the Retryable flag.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return &RemoteError{Msg: r.Err, Retryable: r.Retryable}
}

// RemoteError is an error reported by the device agent (as opposed to a
// transport failure). Retryable remote errors also implement the
// Transient marker recognised by IsTransient.
type RemoteError struct {
	Msg       string
	Retryable bool
}

// Error implements error.
func (e *RemoteError) Error() string { return "control: " + e.Msg }

// Transient reports whether the agent marked the failure retryable.
func (e *RemoteError) Transient() bool { return e.Retryable }

// IsTransient reports whether err (or anything it wraps) marks itself
// transient via a `Transient() bool` method — the seam the device agent
// uses to classify errors and the host uses to decide on retry.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// ErrChannelBroken marks a client an earlier transport failure left in an
// unknown state: typically a call deadline expiring with its answer still
// owed, or an answer frame that was malformed or not the request's. Every
// subsequent call fails fast with an error wrapping this sentinel; the
// only recovery is a fresh connection.
var ErrChannelBroken = errors.New("control: channel broken by earlier transport failure")

// TimeoutError reports a call that did not complete within the client's
// call timeout.
type TimeoutError struct {
	Kind  ReqKind
	After time.Duration
	Err   error
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("control: %s timed out after %v", e.Kind, e.After)
}

// Unwrap exposes the underlying transport error.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// RetryPolicy bounds the client's automatic re-issue of requests the
// agent answered with a retryable error. The zero value disables retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (per entry of a
	// write), including the first; values below 1 mean one attempt.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff (if positive).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep, if non-nil, replaces time.Sleep between attempts (test seam).
	Sleep func(time.Duration)
}

func (p *RetryPolicy) sleep(d time.Duration) {
	switch {
	case d <= 0:
	case p.Sleep != nil:
		p.Sleep(d)
	default:
		time.Sleep(d)
	}
}

// Handler serves requests on the device side. It may keep nothing of req:
// the next request is decoded into req, req.Entries and their keys and
// args.
type Handler interface {
	Handle(req *Request) *Response
}

// Client is the host side of the channel. It is safe for concurrent use;
// requests are serialized.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	nextID  uint64
	timeout time.Duration
	retry   RetryPolicy
	broken  error
	out     []byte // the request frame, after headroom
	frame   []byte // the answer frame
	in      reader // reads it
	gob     payloads
	one     [1]dataplane.Entry // a single-entry write's batch
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close shuts the channel down.
func (c *Client) Close() error { return c.conn.Close() }

// SetCallTimeout bounds every subsequent call: a request whose response
// does not arrive within d fails with *TimeoutError. Because a timed-out
// call leaves its answer owed, to arrive where the next call would read
// its own, it also breaks the client — later calls fail fast wrapping
// ErrChannelBroken. Zero disables the deadline (the default).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetRetryPolicy enables bounded automatic retry of calls the agent
// answers with a retryable (transient) error. Transport failures are
// never retried: the channel's state after a failed exchange is unknown,
// so they break the client instead.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p
}

// Call sends one request and waits for its response, re-issuing it under
// the retry policy while the agent reports the failure as transient. A
// write resumes at the entry that failed, and attempts and backoff start
// over whenever that entry moves on: the budget is per entry.
func (c *Client) Call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callRetrying(req)
}

// callRetrying is Call under c.mu.
func (c *Client) callRetrying(req *Request) (*Response, error) {
	r, done := *req, 0
	backoff := c.retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		r.Entries = req.Entries[done:]
		resp, err := c.callLocked(&r)
		if err != nil {
			return nil, err
		}
		if resp.Done > 0 {
			attempt, backoff = 1, c.retry.BaseBackoff
		}
		resp.Done += done
		done = resp.Done
		if resp.OK() || !resp.Retryable || attempt >= c.retry.MaxAttempts {
			return resp, nil
		}
		c.retry.sleep(backoff)
		backoff *= 2
		if c.retry.MaxBackoff > 0 && backoff > c.retry.MaxBackoff {
			backoff = c.retry.MaxBackoff
		}
	}
}

// callLocked performs one request/response exchange. The caller holds
// c.mu.
func (c *Client) callLocked(req *Request) (*Response, error) {
	if c.broken != nil {
		return nil, fmt.Errorf("control: %s: %w (first failure: %v)", req.Kind, ErrChannelBroken, c.broken)
	}
	c.nextID++
	req.ID = c.nextID
	var err error
	if c.out, err = c.appendRequest(c.out, req); err != nil {
		return nil, fmt.Errorf("control: %s: %w", req.Kind, err) // nothing was sent
	}
	if err := c.exchange(); err != nil {
		return nil, c.breakWith(req.Kind, "exchange", err)
	}
	resp, err := c.answer(req, c.frame)
	if err != nil {
		return nil, c.breakWith(req.Kind, "receive", err)
	}
	return resp, nil
}

// exchange writes the request frame and reads its answer frame, within the
// call timeout if there is one.
func (c *Client) exchange() (err error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, c.out); err != nil {
		return err
	}
	c.frame, err = readFrame(c.r, c.frame)
	return err
}

// appendRequest writes req's frame into b after its headroom: ID, kind,
// entry count, table, then the entries block or the payload's body. It
// refuses a frame over maxFrame.
func (c *Client) appendRequest(b []byte, req *Request) ([]byte, error) {
	b = binary.AppendUvarint(append(b[:0], make([]byte, headroom)...), req.ID)
	b = appendName(binary.AppendUvarint(binary.AppendUvarint(b, uint64(req.Kind)), uint64(len(req.Entries))), req.Table)
	if len(req.Entries) > 0 {
		b = appendEntries(b, req.Entries)
	} else if req.Payload != nil {
		return c.gob.append(b, len(b)-headroom, body{Payload: req.Payload})
	}
	return b, overLimit(len(b) - headroom)
}

// answer decodes in, the answer frame to req: ID, flags, Done, error
// text, then any body. It refuses a frame that is malformed or not req's:
// an ID not its own, a Done past the write, or a failed write's Done
// naming no entry.
func (c *Client) answer(req *Request, in []byte) (*Response, error) {
	r := &c.in
	r.reset(in)
	resp := &Response{ID: r.uvarint()}
	flags, done := r.uvarint(), r.uvarint()
	resp.Err, resp.Retryable = string(r.bytes()), flags == flagRetryable
	if r.failed || flags > flagRetryable {
		return nil, errors.New("malformed answer frame")
	}
	if len(r.rest) > 0 {
		b, err := c.gob.read(r.rest)
		if err != nil {
			return nil, fmt.Errorf("answer body: %w", err)
		}
		resp.Hello, resp.Status, resp.Payload = b.Hello, b.Status, b.Payload
	}
	if n := uint64(len(req.Entries)); resp.ID != req.ID || done > n || n > 0 && !resp.OK() && done == n {
		return nil, fmt.Errorf("answer id %d done %d does not match request %d of %d entries", resp.ID, done, req.ID, n)
	}
	resp.Done = int(done)
	return resp, nil
}

// breakWith marks the client broken — after a transport failure the
// channel's state is unknown, so no further call can trust it — and
// converts deadline expiries to *TimeoutError.
func (c *Client) breakWith(kind ReqKind, stage string, err error) error {
	var werr error
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		werr = &TimeoutError{Kind: kind, After: c.timeout, Err: err}
	} else {
		werr = fmt.Errorf("control: %s %s: %w", stage, kind, err)
	}
	c.broken = werr
	return werr
}

// do makes one call and returns its answer, an error answer as the error.
func (c *Client) do(req *Request) (*Response, error) {
	resp, err := c.Call(req)
	if err != nil {
		return nil, err
	}
	if err := resp.Error(); err != nil {
		return nil, err
	}
	return resp, nil
}

// Hello fetches device identity.
func (c *Client) Hello() (*HelloInfo, error) {
	resp, err := c.do(&Request{Kind: ReqHello})
	if err != nil {
		return nil, err
	}
	return resp.Hello, nil
}

// InstallEntry installs a table entry on the device: a batch of one.
func (c *Client) InstallEntry(e dataplane.Entry) error { return c.writeOne(ReqInstallEntry, e) }

// DeleteEntry removes a table entry from the device by match identity: a
// batch of one.
func (c *Client) DeleteEntry(e dataplane.Entry) error { return c.writeOne(ReqDeleteEntry, e) }

func (c *Client) writeOne(kind ReqKind, e dataplane.Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.one[0] = e
	_, err := c.writeLocked(kind, c.one[:])
	return err
}

// Write sends entries as kind writes (ReqInstallEntry, ReqDeleteEntry) in
// order, maxBatch to a request, and stops at the first that fails: done
// counts the entries applied before it, and the error names it.
func (c *Client) Write(kind ReqKind, entries []dataplane.Entry) (done int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if done, err = c.writeLocked(kind, entries); err != nil {
		err = fmt.Errorf("entry %d (%s): %w", done, entries[done].Table, err)
	}
	return done, err
}

func (c *Client) writeLocked(kind ReqKind, entries []dataplane.Entry) (int, error) {
	req := Request{Kind: kind}
	for done := 0; done < len(entries); done += len(req.Entries) {
		req.Entries = entries[done:min(done+maxBatch, len(entries))]
		resp, err := c.callRetrying(&req)
		if err != nil {
			return done, err
		}
		if err := resp.Error(); err != nil {
			return done + resp.Done, err
		}
	}
	return len(entries), nil
}

// ClearTable empties a table.
func (c *Client) ClearTable(name string) error {
	_, err := c.do(&Request{Kind: ReqClearTable, Table: name})
	return err
}

// ReadStatus fetches the device's internal status registers.
func (c *Client) ReadStatus() (map[string]uint64, error) {
	resp, err := c.do(&Request{Kind: ReqReadStatus})
	if err != nil {
		return nil, err
	}
	return resp.Status, nil
}

// ReadResources fetches the target's resource report.
func (c *Client) ReadResources() (any, error) { return c.fetch(ReqReadResources) }

// ConfigureGen ships a test specification to the device.
func (c *Client) ConfigureGen(spec any) error {
	_, err := c.do(&Request{Kind: ReqConfigureGen, Payload: spec})
	return err
}

// RunTest starts the configured test and waits for completion.
func (c *Client) RunTest() error {
	_, err := c.do(&Request{Kind: ReqRunTest})
	return err
}

// FetchReport collects the checker's results.
func (c *Client) FetchReport() (any, error) { return c.fetch(ReqFetchReport) }

// fetch makes a request that is answered with a payload.
func (c *Client) fetch(kind ReqKind) (any, error) {
	resp, err := c.do(&Request{Kind: kind})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// server is the device side of one connection.
type server struct {
	in  reader
	gob payloads
	req Request
}

// serve answers the request frame in with h, appending the answer frame
// to out. A write over maxBatch or a malformed frame (an entries block not
// filling its rest exactly, a payload not one gob value) is refused before
// h sees it, in an error that ends the connection. readFrame bounds the
// frame's length.
func (s *server) serve(h Handler, in, out []byte) ([]byte, error) {
	r := &s.in
	r.reset(in)
	id, k, n := r.uvarint(), r.uvarint(), r.count(5) // an entry takes 5 bytes at least
	kind, table := ReqKind(k), r.name()
	if r.failed || k > 255 || n > maxBatch {
		return out, fmt.Errorf("control: %s of %d entries: malformed or over the limit of %d", kind, n, maxBatch)
	}
	s.req = Request{id, kind, slices.Grow(s.req.Entries[:0], n)[:n], table, nil}
	if n > 0 && !r.decode(s.req.Entries) {
		return out, fmt.Errorf("control: %s with a malformed entries block", kind)
	}
	if n == 0 && len(r.rest) > 0 {
		b, err := s.gob.read(r.rest)
		if err != nil {
			return out, fmt.Errorf("control: %s payload: %w", kind, err)
		}
		s.req.Payload = b.Payload
	}
	resp := h.Handle(&s.req)
	s.req.Payload = nil
	if resp == nil {
		resp = &Response{Err: fmt.Sprintf("unhandled request %s", kind)}
	}
	return s.appendAnswer(out, id, resp), nil
}

// appendAnswer appends resp's frame, the answer to request id, to out:
// ID, flags, Done, error text, then its body if it has one. An answer
// whose body cannot be encoded, or that would be over maxFrame, is sent as
// the error that says so.
func (s *server) appendAnswer(out []byte, id uint64, resp *Response) []byte {
	start := len(out)
	var flags uint64
	if resp.Retryable {
		flags = flagRetryable
	}
	out = appendName(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(out, id), flags), uint64(resp.Done)), resp.Err)
	err := overLimit(len(out) - start)
	if err == nil && (resp.Hello != nil || resp.Status != nil || resp.Payload != nil) {
		out, err = s.gob.append(out, len(out)-start, body{resp.Hello, resp.Status, resp.Payload})
	}
	if err != nil {
		return s.appendAnswer(out[:start], id, &Response{Err: "answer: " + err.Error(), Done: resp.Done})
	}
	return out
}

// overLimit refuses a frame of n bytes over maxFrame.
func overLimit(n int) error {
	if n > maxFrame {
		return fmt.Errorf("frame of %d bytes, over the limit of %d", n, maxFrame)
	}
	return nil
}

// payloads is one side's gob stream of bodies. Its encoder and decoder
// outlive the frames they fill and read, so a type's description crosses
// once per connection. A body starts with a byte that is 1 where its
// sender's stream starts over, at its first body and after one it could
// not send, and 0 elsewhere.
type payloads struct {
	enc  *gob.Encoder
	dec  *gob.Decoder
	sent bytes.Buffer
	got  bytes.Reader
	b    body // what gob encodes and decodes: a pointer to it costs no allocation
}

// append appends v's body to frame, used bytes long so far, or refuses it
// if it cannot be encoded or would take the frame over maxFrame. A refused
// body never reaches the peer, so the stream starts over after it.
func (p *payloads) append(frame []byte, used int, v body) ([]byte, error) {
	fresh := byte(0)
	if p.enc == nil {
		p.enc, fresh = gob.NewEncoder(&p.sent), 1
	}
	p.sent.Reset()
	p.b = v
	err := p.enc.Encode(&p.b)
	p.b = body{}
	if err == nil {
		err = overLimit(used + 1 + p.sent.Len())
	}
	if err != nil {
		p.enc = nil
		return frame, err
	}
	return append(append(frame, fresh), p.sent.Bytes()...), nil
}

// read decodes b, which must be one body and nothing more. An error leaves
// the stream unreadable.
func (p *payloads) read(b []byte) (body, error) {
	if b[0] > 1 {
		return body{}, fmt.Errorf("stream marker %d", b[0])
	}
	if p.dec == nil || b[0] == 1 {
		p.dec = gob.NewDecoder(&p.got)
	}
	p.got.Reset(b[1:])
	err := p.dec.Decode(&p.b) // p.b is zero: gob leaves a field it is not sent as it was
	v := p.b
	p.b = body{}
	if err == nil && p.got.Len() > 0 {
		err = fmt.Errorf("%d bytes after the payload", p.got.Len())
	}
	return v, err
}

// readFrame reads one frame into buf: its length, refused over maxFrame
// before a byte of the frame is read, then the frame.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > maxFrame {
		return buf, fmt.Errorf("control: frame of %d bytes, over the limit of %d", n, maxFrame)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	_, err = io.ReadFull(r, buf)
	return buf, err
}

// writeFrame writes the frame that follows b's headroom with one Write,
// its length in front of it.
func writeFrame(w io.Writer, b []byte) error {
	var n [headroom]byte
	k := binary.PutUvarint(n[:], uint64(len(b)-headroom))
	start := headroom - k
	copy(b[start:], n[:k])
	_, err := w.Write(b[start:])
	return err
}

// Serve answers requests on conn with h until the connection fails or a
// request frame is refused (see server.serve), then closes it and returns
// the error (net.ErrClosed / io.EOF on clean shutdown).
func Serve(conn net.Conn, h Handler) error {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var s server
	var in, out []byte
	for {
		var err error
		if in, err = readFrame(r, in); err != nil {
			return err
		}
		if out, err = s.serve(h, in, append(out[:0], make([]byte, headroom)...)); err != nil {
			return err
		}
		if err = writeFrame(conn, out); err != nil {
			return err
		}
	}
}

// Pipe returns a client whose requests h answers, through Serve, on a
// goroutine of its own in this process. Their connection is a buffer each
// way, so a frame crosses in one copy and a write never waits for the
// reader. Closing the client stops the goroutine once any call in
// progress has returned.
func Pipe(h Handler) *Client {
	a, b := newPipeBuf(), newPipeBuf()
	go Serve(&pipeConn{r: b, w: a}, h) //nolint: ends when the client closes
	return NewClient(&pipeConn{r: a, w: b})
}

// pipeConn is one end of Pipe's connection: it reads r and writes w, the
// other end's w and r. It has no addresses, and its deadline is a read's.
type pipeConn struct{ r, w *pipeBuf }

func (c *pipeConn) Read(b []byte) (int, error)        { return c.r.read(b) }
func (c *pipeConn) Write(b []byte) (int, error)       { return c.w.write(b) }
func (c *pipeConn) Close() error                      { c.r.close(); c.w.close(); return nil }
func (c *pipeConn) LocalAddr() net.Addr               { return nil }
func (c *pipeConn) RemoteAddr() net.Addr              { return nil }
func (c *pipeConn) SetDeadline(t time.Time) error     { return c.r.setDeadline(t) }
func (c *pipeConn) SetReadDeadline(t time.Time) error { return c.r.setDeadline(t) }
func (c *pipeConn) SetWriteDeadline(time.Time) error  { return nil }

// pipeBuf is one direction of Pipe's connection: the bytes written and not
// yet read, and the reader's deadline.
type pipeBuf struct {
	mu       sync.Mutex
	ready    sync.Cond // broadcast on a write, a close and a deadline
	buf      []byte
	off      int // what the reader has taken of buf
	closed   bool
	deadline time.Time
	timer    *time.Timer
}

func newPipeBuf() *pipeBuf {
	p := &pipeBuf{}
	p.ready.L = &p.mu
	return p
}

func (p *pipeBuf) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, net.ErrClosed
	}
	p.buf = append(p.buf, b...)
	p.ready.Broadcast()
	return len(b), nil
}

// read waits for bytes, the end of the connection or the deadline.
func (p *pipeBuf) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.off == len(p.buf) {
		switch {
		case p.closed:
			return 0, io.EOF
		case !p.deadline.IsZero() && !time.Now().Before(p.deadline):
			return 0, os.ErrDeadlineExceeded
		}
		p.ready.Wait()
	}
	n := copy(b, p.buf[p.off:])
	if p.off += n; p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	}
	return n, nil
}

func (p *pipeBuf) setDeadline(t time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deadline = t
	if p.timer != nil {
		p.timer.Stop()
	}
	if !t.IsZero() {
		p.timer = time.AfterFunc(time.Until(t), p.wake)
	}
	return nil
}

func (p *pipeBuf) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wake()
}

func (p *pipeBuf) wake() {
	p.mu.Lock()
	p.ready.Broadcast()
	p.mu.Unlock()
}

// ListenTCP serves h on a TCP listener, each connection on a goroutine of
// its own, until the listener is closed. h answers the requests of every
// connection at once: a handler whose state they share serializes them,
// as core.Agent does.
func ListenTCP(ln net.Listener, h Handler) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go Serve(conn, h) //nolint: client hangup is the normal exit
	}
}

// DialTCP connects a client to a device agent over TCP.
func DialTCP(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// appendEntries appends the entries block of es to b: per entry the table
// name, key count, each key's value, prefix length and mask, action name,
// arg count, args and priority. A name is its length and bytes; a count
// and a Value's W, Hi and Lo are uvarints, a signed int a varint.
func appendEntries(b []byte, es []dataplane.Entry) []byte {
	for i := range es {
		e := &es[i]
		b = binary.AppendUvarint(appendName(b, e.Table), uint64(len(e.Keys)))
		for _, k := range e.Keys {
			b = appendValue(binary.AppendVarint(appendValue(b, k.Value), int64(k.PrefixLen)), k.Mask)
		}
		b = binary.AppendUvarint(appendName(b, e.Action), uint64(len(e.Args)))
		for _, a := range e.Args {
			b = appendValue(b, a)
		}
		b = binary.AppendVarint(b, int64(e.Priority))
	}
	return b
}

func appendName(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendValue(b []byte, v bitfield.Value) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, uint64(v.W)), v.Hi), v.Lo)
}

// reader reads the frames of one side of a connection: a head's fields
// and a write's entries block. A name equal to one of the first 64 it
// decoded is that same string: entries share it. The entries of a block
// take their keys and args off the ends of two slabs the next block
// reuses, each capped at its length: an append cannot reach the next's.
type reader struct {
	rest   []byte // what is left of the frame
	failed bool
	names  []string
	keys   []dataplane.KeyValue
	args   []bitfield.Value
}

// reset starts reading frame b.
func (d *reader) reset(b []byte) { d.rest, d.failed = b, false }

// decode fills es from what is left of the frame, all of it, or reports
// false. No two entries share key or arg storage, but the next block's
// entries reuse it. A count the bytes left cannot hold (7 a key, 3 a value
// at least) is refused: allocs are O(block).
func (d *reader) decode(es []dataplane.Entry) bool {
	d.keys, d.args = d.keys[:0], d.args[:0]
	for i := range es {
		e := &es[i]
		e.Table, e.Keys, e.Args = d.name(), nil, nil
		if n := d.count(7); n > 0 {
			d.keys = append(d.keys, make([]dataplane.KeyValue, n)...)
			e.Keys = d.keys[len(d.keys)-n : len(d.keys) : len(d.keys)]
			for j := range e.Keys {
				e.Keys[j] = dataplane.KeyValue{Value: d.value(), PrefixLen: d.varint(), Mask: d.value()}
			}
		}
		e.Action = d.name()
		if n := d.count(3); n > 0 {
			d.args = append(d.args, make([]bitfield.Value, n)...)
			e.Args = d.args[len(d.args)-n : len(d.args) : len(d.args)]
			for j := range e.Args {
				e.Args[j] = d.value()
			}
		}
		e.Priority = d.varint()
	}
	return !d.failed && len(d.rest) == 0
}

// uvarint reads a uvarint: zero, once the frame is found malformed.
func (d *reader) uvarint() uint64 {
	v, n := binary.Uvarint(d.rest)
	if n <= 0 {
		d.rest, d.failed = nil, true
		return 0
	}
	d.rest = d.rest[n:]
	return v
}

// varint undoes binary.AppendVarint's zigzag.
func (d *reader) varint() int { u := d.uvarint(); return int(int64(u>>1) ^ -int64(u&1)) }

// count reads a count of items at least size bytes each.
func (d *reader) count(size int) int {
	if n := d.uvarint(); n <= uint64(len(d.rest)/size) {
		return int(n)
	}
	d.rest, d.failed = nil, true
	return 0
}

func (d *reader) value() bitfield.Value {
	return bitfield.Value{W: int(d.uvarint()), Hi: d.uvarint(), Lo: d.uvarint()}
}

// bytes reads a length and that many bytes.
func (d *reader) bytes() []byte {
	n := d.count(1)
	b := d.rest[:n]
	d.rest = d.rest[n:]
	return b
}

// name reads a name; comparing string(b) with a kept one allocates nothing.
func (d *reader) name() string {
	b := d.bytes()
	for _, s := range d.names {
		if string(b) == s {
			return s
		}
	}
	s := string(b)
	if len(d.names) < 64 {
		d.names = append(d.names, s)
	}
	return s
}
