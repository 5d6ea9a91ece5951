package service

// Client — the thin HTTP client for the daemon, used by the CLI's
// client subcommands, the CI smoke test and the differential tests. It
// speaks exactly the wire types in types.go; likelihood comparisons go
// through LnLBits, never the decimal rendering.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"oocphylo/internal/obs"
)

// Client retry defaults: how many times an idempotent request is
// re-issued after a 503 (or transport failure), and the longest single
// back-off the client will honor — a daemon's Retry-After above the cap
// is clamped, not obeyed literally.
const (
	DefaultClientRetries  = 2
	clientRetryBackoffCap = 2 * time.Second
)

// Client talks to one daemon.
type Client struct {
	base    string
	hc      *http.Client
	trace   bool
	retries int
	sleep   func(time.Duration) // injectable for tests
}

// SetTrace toggles distributed tracing: when on, every request carries
// a freshly minted W3C traceparent header, so the daemon records a full
// server-side trace (session loop → engine → manager → tiered store →
// remote object store) and returns the trace id and cost ledger in the
// evaluate reply (the trace id also in the X-OOC-Trace header).
func (c *Client) SetTrace(on bool) { c.trace = on }

// NewClient targets a daemon at addr ("host:port" or a full URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:    strings.TrimRight(addr, "/"),
		hc:      &http.Client{Timeout: 5 * time.Minute},
		retries: DefaultClientRetries,
		sleep:   time.Sleep,
	}
}

// SetRetryBudget caps how many times an idempotent request is retried
// after a retryable failure (0 disables retries entirely).
func (c *Client) SetRetryBudget(n int) {
	if n < 0 {
		n = 0
	}
	c.retries = n
}

// do runs one JSON round trip; GETs are retryable, mutating requests
// are not.
func (c *Client) do(method, path string, in, out any) error {
	return c.doIdem(method, path, in, out, method == http.MethodGet)
}

// doIdem is do with an explicit idempotency verdict. A daemon surfaces
// remote-tier outages as 503 + Retry-After; for requests that are pure
// reads of the likelihood function (every GET, plus evaluate —
// recomputation changes nothing), the client honors the hint and
// retries inside its budget. Transport failures (connection drop
// before a response) are retried on the same terms.
func (c *Client) doIdem(method, path string, in, out any, idempotent bool) error {
	var last error
	for attempt := 0; ; attempt++ {
		err, backoff, retryable := c.once(method, path, in, out)
		if err == nil {
			return nil
		}
		last = err
		if !idempotent || !retryable || attempt >= c.retries {
			return last
		}
		if backoff <= 0 {
			// No server hint: modest linear backoff.
			backoff = time.Duration(attempt+1) * 200 * time.Millisecond
		}
		if backoff > clientRetryBackoffCap {
			backoff = clientRetryBackoffCap
		}
		c.sleep(backoff)
	}
}

// once runs a single JSON round trip. A non-2xx response is decoded as
// an errorReply and surfaced as an error; retryable marks failures the
// daemon declared transient (503) or where no response arrived at all,
// and backoff carries the server's Retry-After hint when present.
func (c *Client) once(method, path string, in, out any) (err error, backoff time.Duration, retryable bool) {
	var body io.Reader
	if in != nil {
		b, merr := json.Marshal(in)
		if merr != nil {
			return merr, 0, false
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err, 0, false
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.trace {
		header, _ := obs.NewTraceparent()
		req.Header.Set("traceparent", header)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err, 0, true // no response: safe to re-ask an idempotent question
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err, 0, true
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		if resp.StatusCode == http.StatusServiceUnavailable {
			retryable = true
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				backoff = time.Duration(secs) * time.Second
			}
		}
		var er errorReply
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("%s %s: %s (status %d)", method, path, er.Error, resp.StatusCode), backoff, retryable
		}
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data))), backoff, retryable
	}
	if out == nil {
		return nil, 0, false
	}
	return json.Unmarshal(data, out), 0, false
}

// CreateSession registers a new session.
func (c *Client) CreateSession(cfg SessionConfig) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions", cfg, &info)
	return info, err
}

// Sessions lists every session.
func (c *Client) Sessions() ([]SessionInfo, error) {
	var infos []SessionInfo
	err := c.do(http.MethodGet, "/v1/sessions", nil, &infos)
	return infos, err
}

// SessionInfo fetches one session's status document.
func (c *Client) SessionInfo(name string) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodGet, "/v1/sessions/"+name, nil, &info)
	return info, err
}

// DeleteSession removes a session and its files.
func (c *Client) DeleteSession(name string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+name, nil, nil)
}

// Evaluate submits one evaluate request (rides the session loop's
// batches). Evaluates are pure — the same spec recomputes the same
// bits — so a 503 (a remote-tier outage) is retried inside
// the client's budget, honoring the daemon's Retry-After hint.
func (c *Client) Evaluate(name string, spec EvalSpec) (EvalReply, error) {
	var rep EvalReply
	err := c.doIdem(http.MethodPost, "/v1/sessions/"+name+"/evaluate", spec, &rep, true)
	return rep, err
}

// Optimize smooths the session tree's branch lengths.
func (c *Client) Optimize(name string, spec OptimizeSpec) (OptimizeReply, error) {
	var rep OptimizeReply
	err := c.do(http.MethodPost, "/v1/sessions/"+name+"/optimize", spec, &rep)
	return rep, err
}

// Park checkpoints the session to disk and frees its RAM.
func (c *Client) Park(name string) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions/"+name+"/park", nil, &info)
	return info, err
}

// Tree returns the session's current Newick.
func (c *Client) Tree(name string) (string, error) {
	var rep struct {
		Newick string `json:"newick"`
	}
	err := c.do(http.MethodGet, "/v1/sessions/"+name+"/tree", nil, &rep)
	return rep.Newick, err
}
