// Package remote provides an in-process loopback object server
// speaking the minimal HTTP ranged GET/PUT protocol the ooc.ObjectStore
// client consumes. It exists so the tiered store's remote tier can be
// exercised in tests, CI soaks and benchmarks without any external
// object-storage dependency, with per-request latency and bandwidth
// injection (via the iosim device model) making remote-I/O cost
// measurable and reproducible.
//
// Protocol (all under /o/<name>):
//
//	PUT  /o/<name>?truncate=<bytes>    -> create/resize to <bytes> (zero fill)
//	PUT  /o/<name>  Content-Range: bytes a-b/*   body = b-a+1 bytes at offset a
//	GET  /o/<name>  Range: bytes=a-b   -> 206 partial content
//	GET  /o/<name>                     -> 200 whole object
//	DELETE /o/<name>                   -> 204
//
// Offsets past the current size grow the object (sparse regions read
// as zeros, like a freshly truncated file).
package remote

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/obs"
)

// ServerConfig injects a device model into every request: each GET/PUT
// sleeps Device.TransferTime(payload bytes) before replying, so a 10 ms
// RTT remote is a 10 ms remote in wall-clock terms. The zero value
// injects nothing.
type ServerConfig struct {
	// Device prices each request (Latency per request + bytes/Bandwidth).
	Device iosim.Device
	// Scale multiplies the injected sleep (default 1 when Device has any
	// latency/bandwidth; 0 disables sleeping but still charges Clock).
	Scale float64
	// Spans, when set, records one server-side span per object request
	// carrying an inbound traceparent header — the last hop of a traced
	// evaluate (client → daemon → tiered store → here).
	Spans *obs.SpanCollector
	// Chaos, when set, is consulted once per request and its verdict
	// applied: connection drops, pre-serve stalls, mid-body truncation,
	// 503 bursts, corrupt GET bodies, and full partitions. Stored
	// objects are never mutated by a fault — write-path truncation and
	// corruption degrade to a dropped connection before the body is
	// read, so every byte that lands in an object arrived intact.
	Chaos *iosim.Chaos
}

// Server is the loopback object server. Create with NewServer, which
// starts listening immediately; Close shuts it down.
type Server struct {
	cfg   ServerConfig
	clock iosim.Clock

	mu      sync.Mutex
	objects map[string][]byte

	ln net.Listener
	hs *http.Server
	wg sync.WaitGroup
}

// NewServer starts a loopback server on 127.0.0.1 (random port).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Scale == 0 && (cfg.Device.Latency > 0 || cfg.Device.Bandwidth > 0) {
		cfg.Scale = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	s := &Server{cfg: cfg, objects: make(map[string][]byte), ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/o/", s.handleObject)
	s.hs = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln)
	}()
	return s, nil
}

// Addr returns the host:port the server listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the remote:// base URL clients dial; append /<object>.
func (s *Server) URL() string { return "remote://" + s.Addr() }

// ObjectURL returns the full remote://host:port/<name> URL for name.
func (s *Server) ObjectURL(name string) string { return s.URL() + "/" + name }

// Clock exposes the injection ledger (ops, bytes, simulated time).
func (s *Server) Clock() *iosim.Clock { return &s.clock }

// Size returns the current byte size of an object (0 if absent).
func (s *Server) Size(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.objects[name]))
}

// Close stops the listener and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.hs.Close()
	s.wg.Wait()
	return err
}

// charge prices one request and sleeps the injected duration.
func (s *Server) charge(bytes int64) {
	s.clock.Charge(s.cfg.Device, bytes)
	if s.cfg.Scale > 0 {
		d := time.Duration(s.cfg.Scale * float64(s.cfg.Device.TransferTime(bytes)))
		if d > 0 {
			time.Sleep(d)
		}
	}
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/o/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad object name", http.StatusBadRequest)
		return
	}
	if tp := r.Header.Get("traceparent"); tp != "" && s.cfg.Spans != nil {
		sp := s.cfg.Spans.StartRemoteChild("obj."+strings.ToLower(r.Method), tp)
		sp.SetAttrStr("object", name)
		defer sp.End()
	}
	fault := iosim.FaultNone
	if s.cfg.Chaos != nil {
		var stall time.Duration
		fault, stall = s.cfg.Chaos.Next()
		switch fault {
		case iosim.FaultDrop:
			// Partition / connection drop: abort before any response
			// byte. http.ErrAbortHandler severs the connection without
			// logging a handler panic.
			panic(http.ErrAbortHandler)
		case iosim.FaultError:
			http.Error(w, "injected unavailability", http.StatusServiceUnavailable)
			return
		case iosim.FaultStall:
			time.Sleep(stall)
		case iosim.FaultTruncate, iosim.FaultCorrupt:
			if r.Method != http.MethodGet {
				// Never mangle the write path's stored bytes: degrade
				// to a drop before the body is consumed.
				panic(http.ErrAbortHandler)
			}
		}
	}
	switch r.Method {
	case http.MethodGet:
		s.handleGet(w, r, name, fault)

	case http.MethodPut:
		s.handlePut(w, r, name)

	case http.MethodDelete:
		s.mu.Lock()
		delete(s.objects, name)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, name string, fault iosim.Fault) {
	s.mu.Lock()
	obj, ok := s.objects[name]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	from, to := int64(0), int64(len(obj))-1
	partial := false
	if rng := r.Header.Get("Range"); rng != "" {
		var err error
		from, to, err = parseRange(rng)
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		if from >= int64(len(obj)) {
			http.Error(w, "range start past object end", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		if to >= int64(len(obj)) {
			to = int64(len(obj)) - 1
		}
		partial = true
	}
	n := to - from + 1
	if n < 0 {
		n = 0
	}
	s.charge(n)
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	if partial {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to, len(obj)))
		w.WriteHeader(http.StatusPartialContent)
	} else {
		w.WriteHeader(http.StatusOK)
	}
	// obj slices are never shrunk or mutated in place for served ranges
	// (PUT replaces/extends under the lock before any new GET sees it);
	// copying under the lock keeps torn reads impossible anyway.
	s.mu.Lock()
	buf := make([]byte, n)
	copy(buf, s.objects[name][from:from+n])
	s.mu.Unlock()
	switch fault {
	case iosim.FaultTruncate:
		// Half the promised Content-Length, then a severed connection:
		// the client sees io.ErrUnexpectedEOF mid-body.
		w.Write(buf[:len(buf)/2])
		panic(http.ErrAbortHandler)
	case iosim.FaultCorrupt:
		// Flip one bit of the served copy (never the stored object);
		// the checksum layer above the tiered store catches it.
		if len(buf) > 0 {
			buf[0] ^= 0x01
		}
	}
	w.Write(buf)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, name string) {
	if t := r.URL.Query().Get("truncate"); t != "" {
		size, err := strconv.ParseInt(t, 10, 64)
		if err != nil || size < 0 || size > maxObjectBytes {
			http.Error(w, "bad truncate size", http.StatusBadRequest)
			return
		}
		io.Copy(io.Discard, r.Body)
		s.mu.Lock()
		obj := s.objects[name]
		switch {
		case int64(len(obj)) < size:
			grown := make([]byte, size)
			copy(grown, obj)
			s.objects[name] = grown
		case int64(len(obj)) > size:
			s.objects[name] = obj[:size:size]
		case obj == nil:
			s.objects[name] = make([]byte, 0)
		}
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	off := int64(0)
	if cr := r.Header.Get("Content-Range"); cr != "" {
		from, to, err := parseContentRange(cr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if to-from+1 != int64(len(body)) {
			http.Error(w, "content-range span does not match body length", http.StatusBadRequest)
			return
		}
		off = from
	}
	s.charge(int64(len(body)))
	s.mu.Lock()
	obj := s.objects[name]
	end := off + int64(len(body))
	if int64(len(obj)) < end {
		grown := make([]byte, end)
		copy(grown, obj)
		obj = grown
	}
	copy(obj[off:], body)
	s.objects[name] = obj
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// maxObjectBytes bounds what a PUT may size or grow an object to: the
// number arrives from the network, and an absurd one must be refused,
// not allocated (or overflowed into a slice index) under the lock.
const maxObjectBytes = 1 << 40

// parseRange parses "bytes=a-b" (both bounds required — the client
// always knows its extent).
func parseRange(h string) (from, to int64, err error) {
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok {
		return 0, 0, fmt.Errorf("remote: unsupported Range %q", h)
	}
	return parseSpan("Range", spec, h)
}

// parseContentRange parses "bytes a-b/*" (total ignored).
func parseContentRange(h string) (from, to int64, err error) {
	spec, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, 0, fmt.Errorf("remote: unsupported Content-Range %q", h)
	}
	spec, _, _ = strings.Cut(spec, "/")
	if from, to, err = parseSpan("Content-Range", spec, h); err == nil && to >= maxObjectBytes {
		return 0, 0, fmt.Errorf("remote: Content-Range %q ends past the %d-byte object limit", h, int64(maxObjectBytes))
	}
	return from, to, err
}

// parseSpan parses "a-b" into 0 <= a <= b with b+1, the exclusive end
// both handlers compute, still representable. h is the whole header,
// for the error.
func parseSpan(kind, spec, h string) (from, to int64, err error) {
	a, b, ok := strings.Cut(spec, "-")
	if !ok || a == "" || b == "" {
		return 0, 0, fmt.Errorf("remote: unsupported %s %q", kind, h)
	}
	from, errA := strconv.ParseInt(a, 10, 64)
	to, errB := strconv.ParseInt(b, 10, 64)
	if errA != nil || errB != nil || from < 0 || to < from || to == math.MaxInt64 {
		return 0, 0, fmt.Errorf("remote: bad %s %q", kind, h)
	}
	return from, to, nil
}
