package ooc

// ObjectStore: the remote tier. A dependency-free Store/RangeStore
// client speaking the minimal HTTP ranged GET/PUT protocol served by
// internal/ooc/remote (and by anything S3-shaped fronted with a thin
// shim): one object holds all n vectors back to back, exactly the
// FileStore layout, addressed with byte ranges. Every request pays a
// network round trip, which is why the TieredStore in front of it
// keeps a local cache and syncs adjacent dirty vectors as single ranged
// requests.
//
// URLs use the scheme remote://host:port/object — see ParseRemoteURL.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"oocphylo/internal/obs"
)

// ParseRemoteURL splits remote://host:port/object into the HTTP
// endpoint (http://host:port/o/object) it maps to.
func ParseRemoteURL(raw string) (endpoint string, err error) {
	rest, ok := strings.CutPrefix(raw, "remote://")
	if !ok {
		return "", fmt.Errorf("ooc: not a remote store URL: %q", raw)
	}
	host, object, ok := strings.Cut(rest, "/")
	if !ok || host == "" || object == "" || strings.Contains(object, "/") {
		return "", fmt.Errorf("ooc: remote store URL must be remote://host:port/object, got %q", raw)
	}
	return "http://" + host + "/o/" + object, nil
}

// ObjectStore reads and writes vectors of one remote object over HTTP
// ranged requests. Requests for distinct vector ranges may run
// concurrently (the http.Client pools connections), matching the Store
// contract. Transport and 5xx errors are wrapped with ErrTransientIO
// so the tier's RemoteRetry re-issues them.
type ObjectStore struct {
	endpoint string
	n        int
	vecLen   int
	client   *http.Client
}

// NewObjectStore creates (truncating) the remote object for numVectors
// vectors of vecLen float64s and returns a store over it. ctx bounds
// the create request.
func NewObjectStore(ctx context.Context, rawURL string, numVectors, vecLen int) (*ObjectStore, error) {
	endpoint, err := ParseRemoteURL(rawURL)
	if err != nil {
		return nil, err
	}
	if numVectors < 1 || vecLen < 1 {
		return nil, fmt.Errorf("ooc: remote store geometry %dx%d invalid", numVectors, vecLen)
	}
	s := &ObjectStore{endpoint: endpoint, n: numVectors, vecLen: vecLen, client: &http.Client{}}
	req, err := s.newRequest(ctx, http.MethodPut, "?truncate="+strconv.FormatInt(s.size(), 10), nil)
	if err != nil {
		return nil, err
	}
	if err := s.do(req, nil); err != nil {
		return nil, fmt.Errorf("ooc: creating remote object: %w", err)
	}
	return s, nil
}

func (s *ObjectStore) size() int64 { return int64(s.n) * int64(s.vecLen) * 8 }

// ReadVector implements Store.
func (s *ObjectStore) ReadVector(vi int, dst []float64) error {
	return s.ReadRange(nil, vi, 1, dst)
}

// WriteVector implements Store.
func (s *ObjectStore) WriteVector(vi int, src []float64) error {
	return s.WriteRange(nil, vi, 1, src)
}

// ReadRange implements RangeStore with one ranged GET.
func (s *ObjectStore) ReadRange(ctx context.Context, vi, count int, dst []float64) error {
	if err := checkRange(s.n, s.vecLen, vi, count, len(dst), "read"); err != nil {
		return err
	}
	from := int64(vi) * int64(s.vecLen) * 8
	to := from + int64(len(dst))*8 - 1
	req, err := s.newRequest(ctx, http.MethodGet, "", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", from, to))
	// An active span makes this GET a traced child hop: the traceparent
	// header carries the trace into the remote store's own spans.
	if sp := obs.SpanFromContext(ctx); sp != nil {
		child := sp.StartChild("remote.get")
		child.SetAttr("vi", int64(vi))
		child.SetAttr("count", int64(count))
		child.SetAttr("bytes", int64(len(dst))*8)
		req.Header.Set("traceparent", child.Traceparent())
		defer child.End()
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("ooc: remote read [%d,%d): %w (%v)", vi, vi+count, ErrTransientIO, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusOK {
		return s.httpErr("read", vi, count, resp.StatusCode)
	}
	if err := decodeVectors(resp.Body, dst); err != nil {
		return fmt.Errorf("ooc: remote read [%d,%d): %w (%v)", vi, vi+count, ErrTransientIO, err)
	}
	return nil
}

// WriteRange implements RangeStore with one ranged PUT.
func (s *ObjectStore) WriteRange(ctx context.Context, vi, count int, src []float64) error {
	if err := checkRange(s.n, s.vecLen, vi, count, len(src), "write"); err != nil {
		return err
	}
	from := int64(vi) * int64(s.vecLen) * 8
	to := from + int64(len(src))*8 - 1
	req, err := s.newRequest(ctx, http.MethodPut, "", encodeVectors(src))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", from, to))
	if sp := obs.SpanFromContext(ctx); sp != nil {
		child := sp.StartChild("remote.put")
		child.SetAttr("vi", int64(vi))
		child.SetAttr("count", int64(count))
		child.SetAttr("bytes", int64(len(src))*8)
		req.Header.Set("traceparent", child.Traceparent())
		defer child.End()
	}
	return s.do(req, func(code int) error { return s.httpErr("write", vi, count, code) })
}

// Close implements Store.
func (s *ObjectStore) Close() error {
	s.client.CloseIdleConnections()
	return nil
}

func (s *ObjectStore) newRequest(ctx context.Context, method, query string, body io.Reader) (*http.Request, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return http.NewRequestWithContext(ctx, method, s.endpoint+query, body)
}

// do runs a request expecting a 2xx reply with no interesting body.
func (s *ObjectStore) do(req *http.Request, onHTTPErr func(code int) error) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("ooc: remote %s: %w (%v)", req.Method, ErrTransientIO, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		if onHTTPErr != nil {
			return onHTTPErr(resp.StatusCode)
		}
		return fmt.Errorf("ooc: remote %s: HTTP %d", req.Method, resp.StatusCode)
	}
	return nil
}

// decodeVectors fills dst from r's little-endian payload. On LE hosts
// the float64 slice itself is the read buffer (no conversion pass).
func decodeVectors(r io.Reader, dst []float64) error {
	if hostLittleEndian {
		_, err := io.ReadFull(r, f64Bytes(dst))
		return err
	}
	buf := make([]byte, len(dst)*8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// encodeVectors returns a reader over src's little-endian bytes. On LE
// hosts the returned reader aliases src, which the Store contract makes
// safe: no writer mutates a vector while its write is in flight.
func encodeVectors(src []float64) io.Reader {
	if hostLittleEndian {
		return bytes.NewReader(f64Bytes(src))
	}
	buf := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return bytes.NewReader(buf)
}

// httpErr classifies an HTTP error status: 5xx are transient (the
// tier's RemoteRetry re-issues them), 4xx are protocol/geometry bugs and
// fail fast.
func (s *ObjectStore) httpErr(op string, vi, count, code int) error {
	if code >= 500 {
		return fmt.Errorf("ooc: remote %s [%d,%d): %w (HTTP %d)", op, vi, vi+count, ErrTransientIO, code)
	}
	return fmt.Errorf("ooc: remote %s [%d,%d): HTTP %d", op, vi, vi+count, code)
}
