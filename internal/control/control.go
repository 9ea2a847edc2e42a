// Package control implements the dedicated management channel between the
// NetDebug software tool on the host computer and the agent inside the
// network device.
//
// The paper's architecture gives the host tool a dedicated interface "to
// configure the generation of test packets and to collect test results";
// this package is that interface. The protocol is a synchronous
// request/response RPC carried over any net.Conn (the device model uses
// net.Pipe in-process; cmd/netdebug uses TCP), encoded with encoding/gob.
//
// Payloads that belong to higher layers (generator and checker
// specifications, test reports, resource reports) travel in one Payload
// field each way, as whichever concrete type its owner gob.Registered:
// they ride the connection's one encoder and decoder, so a type's
// description crosses once per connection, and this package stays free of
// dependencies on the core engine and the target models.
//
// A table write is a batch: up to maxBatch entries to a request, applied
// in order up to the first failure, with Done counting those applied. A
// single-entry call is a batch of one.
package control

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

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

// maxBatch is the most entries one request carries, which bounds what a
// peer can make the agent decode at once: Serve drops one that asks more.
const maxBatch = 4096

// Request is one host-to-device message.
type Request struct {
	ID   uint64
	Kind ReqKind
	// Entries are a write's (ReqInstallEntry, ReqDeleteEntry), in order.
	Entries []dataplane.Entry
	Table   string
	// Payload carries the generator+checker test specification
	// (*core.TestSpec) for ReqConfigureGen.
	Payload any
}

// head is what crosses the wire of a Request; its N entries follow as gob
// values of their own, so Serve reads N and enforces maxBatch before it
// decodes any entry.
type head struct {
	ID      uint64
	Kind    ReqKind
	N       int
	Table   string
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

// ErrChannelBroken marks a client whose gob stream was poisoned by an
// earlier transport failure (typically a call deadline expiring with
// bytes in flight). Every subsequent call fails fast with an error
// wrapping this sentinel; the only recovery is a fresh connection.
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

// Handler serves requests on the device side. It may keep an entry's Keys
// and Args, not req or req.Entries, which Serve decodes the next one into.
type Handler interface {
	Handle(req *Request) *Response
}

// Client is the host side of the channel. It is safe for concurrent use;
// requests are serialized.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	enc     *gob.Encoder
	dec     *gob.Decoder
	nextID  uint64
	timeout time.Duration
	retry   RetryPolicy
	broken  error
	head    head
	one     [1]dataplane.Entry // a single-entry write's batch
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	w := bufio.NewWriter(conn)
	return &Client{conn: conn, w: w, enc: gob.NewEncoder(w), dec: gob.NewDecoder(conn)}
}

// Close shuts the channel down.
func (c *Client) Close() error { return c.conn.Close() }

// SetCallTimeout bounds every subsequent call: a request whose response
// does not arrive within d fails with *TimeoutError. Because a timed-out
// call leaves the gob stream mid-message, it also breaks the client —
// later calls fail fast wrapping ErrChannelBroken. Zero disables the
// deadline (the default).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetRetryPolicy enables bounded automatic retry of calls the agent
// answers with a retryable (transient) error. Transport failures are
// never retried: the stream state after a failed encode or decode is
// unknown, so they break the client instead.
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
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, fmt.Errorf("control: set deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	c.head = head{req.ID, req.Kind, len(req.Entries), req.Table, req.Payload}
	err := c.enc.Encode(&c.head)
	for i := 0; err == nil && i < len(req.Entries); i++ {
		err = c.enc.Encode(&req.Entries[i])
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return nil, c.breakWith(req.Kind, "send", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, c.breakWith(req.Kind, "receive", err)
	}
	if resp.ID != req.ID || resp.Done < 0 || resp.Done > len(req.Entries) {
		return nil, c.breakWith(req.Kind, "match", fmt.Errorf("response id %d done %d for request %d", resp.ID, resp.Done, req.ID))
	}
	return &resp, nil
}

// breakWith marks the client broken — a transport failure leaves the gob
// stream in an unknown state, so no further call can trust it — and
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

// Serve answers requests on conn with h until the connection fails or a
// request declares more than maxBatch entries, then closes it and returns
// the error (net.ErrClosed / io.EOF on clean shutdown).
func Serve(conn net.Conn, h Handler) error {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var hd head
	var req Request
	for {
		hd = head{} // gob leaves a zero field unsent: reused storage keeps what it is not sent
		if err := dec.Decode(&hd); err != nil {
			return err
		}
		if hd.N < 0 || hd.N > maxBatch {
			return fmt.Errorf("control: %s of %d entries, over the limit of %d", hd.Kind, hd.N, maxBatch)
		}
		clear(req.Entries)
		req = Request{hd.ID, hd.Kind, slices.Grow(req.Entries[:0], hd.N)[:hd.N], hd.Table, hd.Payload}
		for i := range req.Entries {
			if err := dec.Decode(&req.Entries[i]); err != nil {
				return err
			}
		}
		resp := h.Handle(&req)
		if resp == nil {
			resp = &Response{Err: fmt.Sprintf("unhandled request %s", req.Kind)}
		}
		resp.ID = req.ID
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}

// Pipe returns a connected client/server pair over an in-process pipe and
// starts serving h on the device side. Closing the client stops the
// server.
func Pipe(h Handler) *Client {
	cliConn, srvConn := net.Pipe()
	go Serve(srvConn, h) //nolint: error is io.EOF on client close
	return NewClient(cliConn)
}

// ListenTCP serves h on a TCP listener, one connection at a time,
// until the listener is closed.
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
