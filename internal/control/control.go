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
package control

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
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

// Request is one host-to-device message.
type Request struct {
	ID    uint64
	Kind  ReqKind
	Entry *dataplane.Entry
	Table string
	// Payload carries the generator+checker test specification
	// (*core.TestSpec) for ReqConfigureGen.
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
	// Retryable marks an error response as transient: the operation
	// failed for a reason the agent expects to clear (a flapping install
	// path, a momentarily exhausted resource), so the host may re-issue
	// the identical request. The client's retry policy acts on this flag.
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
	// MaxAttempts is the total number of tries per call, including the
	// first; values below 1 mean one attempt (no retry).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff (if positive).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Sleep, if non-nil, replaces time.Sleep between attempts (test seam).
	Sleep func(time.Duration)
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Handler serves requests on the device side.
type Handler interface {
	Handle(req *Request) *Response
}

// Client is the host side of the channel. It is safe for concurrent use;
// requests are serialized.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	nextID  uint64
	timeout time.Duration
	retry   RetryPolicy
	broken  error
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
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
// the retry policy while the agent reports the failure as transient.
func (c *Client) Call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		resp, err := c.callLocked(req)
		if err != nil {
			return nil, err
		}
		if resp.OK() || !resp.Retryable || attempt >= attempts {
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
	if err := c.enc.Encode(req); err != nil {
		return nil, c.breakWith(req.Kind, "send", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, c.breakWith(req.Kind, "receive", err)
	}
	if resp.ID != req.ID {
		return nil, c.breakWith(req.Kind, "match", fmt.Errorf("response id %d for request %d", resp.ID, req.ID))
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

// InstallEntry installs a table entry on the device.
func (c *Client) InstallEntry(e dataplane.Entry) error {
	_, err := c.do(&Request{Kind: ReqInstallEntry, Entry: &e})
	return err
}

// DeleteEntry removes a table entry from the device by match identity.
func (c *Client) DeleteEntry(e dataplane.Entry) error {
	_, err := c.do(&Request{Kind: ReqDeleteEntry, Entry: &e})
	return err
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

// Serve answers requests on conn with h until the connection closes. It
// returns the first decode error (net.ErrClosed / io.EOF on clean
// shutdown).
func Serve(conn net.Conn, h Handler) error {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return err
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
		go func() {
			defer conn.Close()
			Serve(conn, h) //nolint: client hangup is the normal exit
		}()
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
