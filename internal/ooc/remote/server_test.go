package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"oocphylo/internal/iosim"
	"oocphylo/internal/ooc"
)

func TestServerRangedGetPut(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/obj"

	// Create a 32-byte object.
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=32", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("truncate: HTTP %d", resp.StatusCode)
	}
	if got := s.Size("obj"); got != 32 {
		t.Fatalf("size = %d, want 32", got)
	}

	// Ranged PUT in the middle.
	req, _ = http.NewRequest(http.MethodPut, base, strings.NewReader("ABCDEFGH"))
	req.Header.Set("Content-Range", "bytes 8-15/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ranged put: HTTP %d", resp.StatusCode)
	}

	// Ranged GET reads it back; the zero region stays zero.
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=6-17")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged get: HTTP %d", resp.StatusCode)
	}
	if want := "\x00\x00ABCDEFGH\x00\x00"; string(body) != want {
		t.Fatalf("ranged get = %q, want %q", body, want)
	}
	if cr := resp.Header.Get("Content-Range"); cr != "bytes 6-17/32" {
		t.Errorf("Content-Range = %q", cr)
	}

	// Writes past the end grow the object.
	req, _ = http.NewRequest(http.MethodPut, base, strings.NewReader("xy"))
	req.Header.Set("Content-Range", "bytes 40-41/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Size("obj"); got != 42 {
		t.Errorf("size after grow = %d, want 42", got)
	}

	// No client sends HEAD any more; the server says so.
	resp, err = http.Head(base)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("HEAD: HTTP %d, want 405", resp.StatusCode)
	}

	// Unsatisfiable range.
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=100-120")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("past-end range: HTTP %d, want 416", resp.StatusCode)
	}
}

func TestServerLatencyInjection(t *testing.T) {
	s, err := NewServer(ServerConfig{
		Device: iosim.Device{Name: "wan", Latency: 20 * time.Millisecond, Bandwidth: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/x"
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=64", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	start := time.Now()
	req, _ = http.NewRequest(http.MethodGet, base, nil)
	req.Header.Set("Range", "bytes=0-63")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("injected 20ms latency but request took %v", elapsed)
	}
	if s.Clock().Ops() == 0 {
		t.Error("clock ledger not charged")
	}
}

func TestServerConcurrentRanges(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/c"
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=800", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			payload := strings.Repeat(string(rune('a'+i)), 100)
			req, _ := http.NewRequest(http.MethodPut, base, strings.NewReader(payload))
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", i*100, i*100+99))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		req, _ := http.NewRequest(http.MethodGet, base, nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", i*100, i*100+99))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := strings.Repeat(string(rune('a'+i)), 100); string(body) != want {
			t.Fatalf("stripe %d corrupted: %q...", i, body[:8])
		}
	}
}

// TestServerChaosInjection drives each injected fault kind through the
// HTTP surface and pins the server's core safety rule: stored objects
// are never mutated by injection, whatever the GET path returned. One
// server per fault kind — a live server's config is never reassigned;
// the device is switched off and on through its own locked setters.
func TestServerChaosInjection(t *testing.T) {
	const payload = "ABCDEFGHIJKLMNOP"
	for _, tc := range []struct {
		name string
		cfg  iosim.ChaosConfig
		// get checks what a faulted GET returned.
		get func(t *testing.T, body string, code int, err error)
		// getOnly marks kinds only a GET draws: a PUT under them is
		// served normally.
		getOnly bool
	}{
		{name: "error", cfg: iosim.ChaosConfig{ErrorProb: 1},
			get: func(t *testing.T, _ string, code int, _ error) {
				if code != http.StatusServiceUnavailable {
					t.Errorf("FaultError GET: HTTP %d, want 503", code)
				}
			}},
		{name: "drop", cfg: iosim.ChaosConfig{DropProb: 1},
			get: func(t *testing.T, _ string, _ int, err error) {
				if err == nil {
					t.Error("FaultDrop GET completed")
				}
			}},
		{name: "corrupt", cfg: iosim.ChaosConfig{CorruptProb: 1}, getOnly: true,
			get: func(t *testing.T, body string, code int, err error) {
				if err != nil || code != http.StatusPartialContent {
					t.Fatalf("FaultCorrupt GET: HTTP %d err %v", code, err)
				}
				if body == payload {
					t.Error("FaultCorrupt returned pristine bytes")
				}
			}},
		{name: "truncate", cfg: iosim.ChaosConfig{TruncateProb: 1}, getOnly: true,
			get: func(t *testing.T, body string, code int, err error) {
				if code != http.StatusPartialContent || !errors.Is(err, io.ErrUnexpectedEOF) || body != payload[:len(payload)/2] {
					t.Errorf("FaultTruncate GET: HTTP %d, body %q, err %v; want 206, %q, then %v",
						code, body, err, payload[:len(payload)/2], io.ErrUnexpectedEOF)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chaos := iosim.NewChaos(tc.cfg)
			chaos.Disable()
			s, err := NewServer(ServerConfig{Chaos: chaos})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			base := "http://" + s.Addr() + "/o/chaos"
			put := func() int {
				req, _ := http.NewRequest(http.MethodPut, base, strings.NewReader(payload))
				req.Header.Set("Content-Range", "bytes 0-15/*")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return -1
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			get := func() (string, int, error) {
				req, _ := http.NewRequest(http.MethodGet, base, nil)
				req.Header.Set("Range", "bytes=0-15")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return "", 0, err
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				return string(body), resp.StatusCode, rerr
			}
			if code := put(); code != http.StatusOK {
				t.Fatalf("clean PUT: HTTP %d", code)
			}

			chaos.Enable()
			body, code, err := get()
			tc.get(t, body, code, err)
			if tc.name == "truncate" {
				// The store's mid-body decode path: one GET, one
				// truncation, a transient error the tier retries.
				st, err := ooc.NewObjectStore(context.Background(), "remote://"+s.Addr()+"/chaos", 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.ReadVector(0, make([]float64, 1)); !errors.Is(err, ooc.ErrTransientIO) {
					t.Errorf("ReadVector under truncation: %v, want ErrTransientIO", err)
				}
				st.Close()
				if n := chaos.Stats().Truncations; n != 2 {
					t.Errorf("%d truncations for the 2 GETs issued", n)
				}
			}
			// A PUT never draws corruption or truncation, so every
			// byte that lands in an object arrived intact.
			if tc.getOnly {
				before := chaos.Stats()
				if code := put(); code != http.StatusOK {
					t.Errorf("PUT under a GET-only fault: HTTP %d, want 200", code)
				}
				if after := chaos.Stats(); after.Corruptions+after.Truncations != before.Corruptions+before.Truncations {
					t.Errorf("a PUT drew a GET-only fault: %+v, then %+v", before, after)
				}
			}
			chaos.Disable()

			if body, code, err := get(); err != nil || code != http.StatusPartialContent || body != payload {
				t.Errorf("object mutated by injection: %q HTTP %d err %v", body, code, err)
			}
		})
	}
}

// TestServerRefusesAbsurdSizes: a PUT whose Content-Range or truncate
// size would overflow the object's end, or allocate past the object
// limit, is answered 400 — it used to panic inside the handler with the
// server's lock held, wedging every later request.
func TestServerRefusesAbsurdSizes(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr() + "/o/obj"
	client := &http.Client{Timeout: 5 * time.Second}
	for _, tc := range []struct{ query, contentRange string }{
		{"", "bytes 9223372036854775800-9223372036854775807/*"}, // off+len overflows
		{"", "bytes 4611686018427387904-4611686018427387911/*"}, // 4 EiB object
		{"?truncate=4611686018427387904", ""},
	} {
		req, _ := http.NewRequest(http.MethodPut, base+tc.query, strings.NewReader("ABCDEFGH"))
		if tc.contentRange != "" {
			req.Header.Set("Content-Range", tc.contentRange)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s%s: %v", tc.query, tc.contentRange, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s%s: HTTP %d, want 400", tc.query, tc.contentRange, resp.StatusCode)
		}
	}
	// The server still answers.
	req, _ := http.NewRequest(http.MethodPut, base+"?truncate=8", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Size("obj"); resp.StatusCode != http.StatusOK || got != 8 {
		t.Errorf("after the refused requests: HTTP %d, size %d", resp.StatusCode, got)
	}
}
