// Package client is the Go client for the zmeshd compression service
// (cmd/zmeshd, internal/server). It wraps the HTTP protocol with connection
// reuse, context deadlines, and retry with jittered exponential backoff on
// 429/5xx responses and transport errors — so a burst that trips the
// server's admission control resolves itself without caller-side logic.
//
// Typical use:
//
//	cl := client.New("http://localhost:8080")
//	id, _ := cl.Register(ctx, mesh)
//	c, _ := cl.CompressField(ctx, id, field, zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
//	values, _ := cl.Decompress(ctx, id, c)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	zmesh "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// Client talks to one zmeshd base URL. It is safe for concurrent use; all
// requests share one http.Client, so keep-alive connections are reused
// across calls and goroutines.
type Client struct {
	base        string
	hc          *http.Client
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration

	// jitterState drives the backoff jitter: a splitmix64 sequence advanced
	// with a single atomic add, so concurrent retry loops never contend on a
	// lock (or race on a shared *rand.Rand) just to sleep.
	jitterState atomic.Uint64
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (e.g. to set TLS or an overall
// client timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds the retry attempts per request (0 disables
// retrying; the first attempt always runs).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the exponential backoff window: the i-th retry waits a
// jittered duration in [base·2ⁱ/2, base·2ⁱ], capped at max. A server
// Retry-After hint overrides the computed delay.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.baseBackoff, c.maxBackoff = base, max }
}

// New creates a client for a zmeshd base URL like "http://host:8080".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{},
		maxRetries:  6,
		baseBackoff: 50 * time.Millisecond,
		maxBackoff:  2 * time.Second,
	}
	c.jitterState.Store(uint64(time.Now().UnixNano()))
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError is a non-2xx response that was not (or no longer) retried.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the verbatim Retry-After header, if the server sent one
	// — a routing layer sweeping several replicas uses it to honor the shed
	// hint across the whole sweep, not just one host's retry loop.
	RetryAfter string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Msg)
}

// IsConnectError reports whether err is a failure to establish a TCP
// connection at all (connection refused, no route, dial timeout) — the
// server never saw the request. Exponential backoff is the wrong response
// to these: the host is down, not overloaded, so the retry loop uses a
// flat base delay and a routing client fails over to the next replica
// immediately.
func IsConnectError(err error) bool {
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// retryable reports whether a status is worth another attempt: admission
// sheds and transient upstream failures, never client errors.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// jitter picks a uniform duration in [d/2, d] from the lock-free splitmix64
// stream.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	z := c.jitterState.Add(0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	f := float64(z>>11) / float64(uint64(1)<<53) // uniform in [0, 1)
	return d/2 + time.Duration(f*float64(d/2))
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("3") or HTTP-date ("Wed, 21 Oct 2015 07:28:00 GMT",
// interpreted relative to now and floored at zero). Unparseable or negative
// hints report !ok so the caller falls back to computed backoff.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// backoffDelay computes the wait before retry attempt (1-based), honoring a
// Retry-After hint when the server provided one. Hints are clamped to the
// configured maximum backoff: one server asking for a minute must not stall
// the retry loop longer than the caller budgeted.
func (c *Client) backoffDelay(attempt int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if d, ok := parseRetryAfter(retryAfter, time.Now()); ok {
			if d > c.maxBackoff {
				d = c.maxBackoff
			}
			return d
		}
	}
	d := c.baseBackoff << uint(attempt-1)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	return c.jitter(d)
}

// retryDelay is backoffDelay made failure-aware: a connect error (the
// listener is gone, nothing was ever sent) gets a flat jittered base delay
// instead of the exponential window — backing off exponentially against a
// dead socket just burns the caller's deadline without easing any load.
// Everything else (shed responses, transport errors mid-request) keeps the
// exponential schedule.
func (c *Client) retryDelay(attempt int, retryAfter string, lastErr error) time.Duration {
	if IsConnectError(lastErr) {
		return c.jitter(c.baseBackoff)
	}
	return c.backoffDelay(attempt, retryAfter)
}

// retry is the client's one attempt loop. attempt reports a final outcome
// (success, or an error another try cannot fix) or a failure worth retrying,
// with the server's Retry-After hint if it sent one; ctx bounds the whole loop
// including the backoff sleeps.
func (c *Client) retry(ctx context.Context, attempt func() (final bool, retryAfter string, err error)) error {
	for n := 1; ; n++ {
		final, retryAfter, err := attempt()
		if final {
			return err
		}
		if n > c.maxRetries {
			return fmt.Errorf("client: giving up after %d attempts: %w", n, err)
		}
		if err := c.sleep(ctx, n, retryAfter, err); err != nil {
			return err
		}
	}
}

// failed classifies an attempt that produced no 2xx response, in retry's
// terms: a transport error is retryable unless ctx ended it, a status is
// retryable when retryable says so. A non-nil resp is drained and closed.
func failed(ctx context.Context, resp *http.Response, err error) (final bool, retryAfter string, _ error) {
	if err != nil {
		if ctx.Err() != nil {
			return true, "", ctx.Err()
		}
		return false, "", err
	}
	se := statusError(resp)
	return !retryable(se.Code), se.RetryAfter, se
}

// do issues one request with retries, returning the response body and
// headers of the first 2xx answer. The body is re-sent from buf on each
// attempt.
func (c *Client) do(ctx context.Context, method, url, contentType string, buf []byte) (body []byte, hdr http.Header, err error) {
	err = c.retry(ctx, func() (bool, string, error) {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(buf))
		if err != nil {
			return true, "", err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil || resp.StatusCode/100 != 2 {
			return failed(ctx, resp, err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		hdr = resp.Header
		return err == nil, "", err // a torn 2xx body is worth another try
	})
	if err != nil {
		return nil, nil, err
	}
	return body, hdr, nil
}

// RegisterMesh registers serialized topology metadata (Mesh.Structure
// bytes) and returns the content-addressed mesh ID. Registration is
// idempotent: re-registering the same structure refreshes the server's
// cache recency and returns the same ID.
func (c *Client) RegisterMesh(ctx context.Context, structure []byte) (string, error) {
	body, _, err := c.do(ctx, http.MethodPost, c.base+wire.PathMeshes, wire.ContentTypeBinary, structure)
	if err != nil {
		return "", err
	}
	var reg wire.RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		return "", fmt.Errorf("client: decoding register response: %w", err)
	}
	if reg.MeshID == "" {
		return "", errors.New("client: register response carries no mesh_id")
	}
	return reg.MeshID, nil
}

// Register is RegisterMesh for a live mesh.
func (c *Client) Register(ctx context.Context, m *zmesh.Mesh) (string, error) {
	return c.RegisterMesh(ctx, m.Structure())
}

// Compress sends one field's level-order values for server-side compression
// and returns the artifact. The payload comes back container-enveloped —
// byte-identical to what the in-process Encoder.CompressField produces for
// the same mesh, options and bound. With opt.Layout = zmesh.LayoutAuto the
// server resolves the layout from the mesh dimension and codec
// (zmesh.ResolveAuto, so every replica answers identically) and the returned
// artifact records that concrete layout — Decompress needs nothing further.
func (c *Client) Compress(ctx context.Context, meshID, fieldName string, values []float64, opt zmesh.Options, bound zmesh.Bound) (*zmesh.Compressed, error) {
	opt = withDefaults(opt)
	q := make([]string, 0, 5)
	q = append(q,
		wire.ParamField+"="+url.QueryEscape(fieldName),
		wire.ParamLayout+"="+url.QueryEscape(opt.Layout.String()),
		wire.ParamCurve+"="+url.QueryEscape(opt.Curve),
		wire.ParamCodec+"="+url.QueryEscape(opt.Codec),
		wire.ParamBound+"="+url.QueryEscape(wire.FormatBound(bound)),
	)
	reqURL := c.base + wire.CompressPath(meshID) + "?" + strings.Join(q, "&")
	buf := wire.AppendFloats(make([]byte, 0, 8*len(values)), values)
	payload, hdr, err := c.do(ctx, http.MethodPost, reqURL, wire.ContentTypeBinary, buf)
	if err != nil {
		return nil, err
	}
	return artifactFromHeaders(hdr, payload)
}

// artifactFromHeaders reconstructs a zmesh.Compressed from the X-Zmesh-*
// metadata headers of a compress response plus its payload bytes — shared
// by the buffered and streaming compress paths.
func artifactFromHeaders(hdr http.Header, payload []byte) (*zmesh.Compressed, error) {
	numValues, err := strconv.Atoi(hdr.Get(wire.HeaderNumValues))
	if err != nil {
		return nil, fmt.Errorf("client: bad %s header: %w", wire.HeaderNumValues, err)
	}
	layout, err := core.ParseLayout(hdr.Get(wire.HeaderLayout))
	if err != nil {
		return nil, fmt.Errorf("client: bad %s header: %w", wire.HeaderLayout, err)
	}
	return &zmesh.Compressed{
		FieldName: hdr.Get(wire.HeaderField),
		Layout:    layout,
		Curve:     hdr.Get(wire.HeaderCurve),
		Codec:     hdr.Get(wire.HeaderCodec),
		NumValues: numValues,
		Payload:   payload,
	}, nil
}

// CompressField is Compress for a live field.
func (c *Client) CompressField(ctx context.Context, meshID string, f *zmesh.Field, opt zmesh.Options, bound zmesh.Bound) (*zmesh.Compressed, error) {
	return c.Compress(ctx, meshID, f.Name, zmesh.FieldValues(f), opt, bound)
}

// Decompress sends an artifact for server-side decompression and returns
// the reconstructed level-order values. Layout and curve come from the
// artifact metadata; the codec is read from the container envelope by the
// server.
func (c *Client) Decompress(ctx context.Context, meshID string, comp *zmesh.Compressed) ([]float64, error) {
	q := strings.Join([]string{
		wire.ParamField + "=" + url.QueryEscape(comp.FieldName),
		wire.ParamLayout + "=" + url.QueryEscape(comp.Layout.String()),
		wire.ParamCurve + "=" + url.QueryEscape(comp.Curve),
	}, "&")
	reqURL := c.base + wire.DecompressPath(meshID) + "?" + q
	body, _, err := c.do(ctx, http.MethodPost, reqURL, wire.ContentTypeBinary, comp.Payload)
	if err != nil {
		return nil, err
	}
	values, err := decodeValues(body)
	if err != nil {
		return nil, err
	}
	if comp.NumValues != 0 && len(values) != comp.NumValues {
		return nil, fmt.Errorf("client: server returned %d values, artifact claims %d", len(values), comp.NumValues)
	}
	return values, nil
}

// withDefaults fills an empty curve or codec from zmesh.DefaultOptions, the
// pipeline the server assumes for an absent query parameter.
func withDefaults(opt zmesh.Options) zmesh.Options {
	def := zmesh.DefaultOptions()
	if opt.Curve == "" {
		opt.Curve = def.Curve
	}
	if opt.Codec == "" {
		opt.Codec = def.Codec
	}
	return opt
}
