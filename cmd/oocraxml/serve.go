package main

// The `serve` and `client` subcommands: PLF-as-a-service. `serve` turns
// the one-shot CLI into a long-running daemon hosting named sessions
// (alignment + model + tree), with concurrent evaluates coalesced into
// single engine passes, a global memory budget arbitrated across
// tenants, and idle sessions parked to exact-resume checkpoints.
// `client` is the matching command-line client, speaking the daemon's
// JSON API.
//
//	oocraxml serve -addr 127.0.0.1:8080 -data /var/lib/oocraxml -server-budget 2000000000
//	oocraxml client create -addr 127.0.0.1:8080 -name d1 -s data.phy -a 1
//	oocraxml client eval -addr 127.0.0.1:8080 -name d1 -edge 0 -n 8 -concurrent
//	oocraxml client park -addr 127.0.0.1:8080 -name d1
//
// SIGINT/SIGTERM park every session before exit (exit code 0), so a
// restarted daemon over the same -data directory adopts and revives
// them on their next request.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"oocphylo/internal/ooc"
	"oocphylo/internal/service"
)

// serveFlags declares the daemon's flag set, bound straight into its
// config (the store flags through the binder `run` shares).
func serveFlags() (*flag.FlagSet, *string, *service.ServerConfig, *ooc.StackSpec) {
	fs := flag.NewFlagSet("oocraxml serve", flag.ContinueOnError)
	cfg, store := &service.ServerConfig{}, &ooc.StackSpec{}
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&cfg.DataDir, "data", "oocraxml-data", "data directory: per-session alignments, checkpoints and out-of-core backing files")
	fs.Int64Var(&cfg.MemBudget, "server-budget", 0, "global ancestral-vector budget in bytes across all active sessions (0 = unlimited); admission rejects sessions whose memory floor does not fit, and out-of-core slot pools are squeezed proportionally")
	fs.DurationVar(&cfg.IdleTimeout, "idle-park", 0, "park sessions with no request for this long (0 = never; at least 1ms)")
	bindStore(fs, store, "remote object-store endpoint (remote://host:port, or remote://host:port/namespace to share one server between daemons): out-of-core sessions keep their vectors there behind a per-session write-back cache in -data")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", 0, "end-to-end deadline per /v1 request (0 = none); expiry answers 503 + Retry-After")
	return fs, addr, cfg, store
}

func runServe(args []string, out *os.File) error {
	fs, addr, cfg, store := serveFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.StoreURL, cfg.CacheBytes = store.URL, store.CacheBytes
	cfg.RemoteDeadline = store.RemoteDeadline
	srv, err := service.NewServer(*cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(out, "oocraxml daemon on http://%s/ (sessions under /v1/, debug under /debug/)\n", ln.Addr())
	fmt.Fprintf(out, "Data directory: %s\n", cfg.DataDir)
	if cfg.StoreURL != "" {
		fmt.Fprintf(out, "Vector store: %s (per-session cache in %s)\n", cfg.StoreURL, cfg.DataDir)
	}
	if adopted := srv.Sessions(); len(adopted) > 0 {
		names := make([]string, 0, len(adopted))
		for _, info := range adopted {
			names = append(names, info.Name)
		}
		fmt.Fprintf(out, "Adopted %d parked session(s): %s\n", len(adopted), strings.Join(names, ", "))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, finish in-flight requests,
	// then park every session so the daemon is resumable. An interrupt
	// is an outcome, not a failure — exit 0.
	fmt.Fprintln(out, "Signal received; parking sessions...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		return fmt.Errorf("parking sessions: %w", err)
	}
	fmt.Fprintln(out, "All sessions parked; bye.")
	return nil
}

// clientFlags starts a client operation's flag set with what every
// operation takes.
func clientFlags(op string) (fs *flag.FlagSet, addr, name *string) {
	fs = flag.NewFlagSet("oocraxml client "+op, flag.ContinueOnError)
	addr = fs.String("addr", "127.0.0.1:8080", "daemon address")
	name = fs.String("name", "", "session name")
	return fs, addr, name
}

func runClient(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("client: need an operation: create, list, info, eval, optimize, park, delete, tree")
	}
	op, rest := args[0], args[1:]
	fs, addr, name := clientFlags(op)

	switch op {
	case "create":
		sf := bindSpec(fs)
		if err := fs.Parse(rest); err != nil {
			return err
		}
		cfg := sf.resolve()
		if cfg.Path == "" {
			return fmt.Errorf("client create: an alignment (-s) is required")
		}
		// -s and -t name files on this host: send their contents.
		alnData, err := os.ReadFile(cfg.Path)
		if err != nil {
			return err
		}
		cfg.Name, cfg.Alignment, cfg.Path = *name, string(alnData), ""
		if cfg.TreePath != "" {
			nwk, err := os.ReadFile(cfg.TreePath)
			if err != nil {
				return err
			}
			cfg.Newick, cfg.TreePath = string(nwk), ""
		}
		info, err := service.NewClient(*addr).CreateSession(cfg)
		if err != nil {
			return err
		}
		printSessionInfo(out, info)
		return nil

	case "list":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		infos, err := service.NewClient(*addr).Sessions()
		if err != nil {
			return err
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		fmt.Fprintf(out, "%d session(s)\n", len(infos))
		for _, info := range infos {
			fmt.Fprintf(out, "  %-20s %-7s taxa=%d patterns=%d evals=%d lnL=%.6f\n",
				info.Name, info.State, info.Taxa, info.Patterns, info.Evals, info.LnL)
		}
		return nil

	case "info":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		info, err := service.NewClient(*addr).SessionInfo(*name)
		if err != nil {
			return err
		}
		printSessionInfo(out, info)
		return nil

	case "eval":
		edge := fs.Int("edge", 0, "tree edge index to evaluate at")
		length := fs.Float64("length", -1, "hypothetical branch length (< 0 = the edge's current length)")
		full := fs.Bool("full", false, "force a fresh full engine pass before evaluating")
		count := fs.Int("n", 1, "number of evaluate requests to issue")
		concurrent := fs.Bool("concurrent", false, "issue the -n requests concurrently (they take the session in turn)")
		trace := fs.Bool("trace", false, "send a W3C traceparent per request and print the daemon's trace id + cost ledger (inspect with GET /debug/trace/{id})")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		spec := service.EvalSpec{Edge: *edge, Full: *full}
		if *length >= 0 {
			l := *length
			spec.Length = &l
		}
		c := service.NewClient(*addr)
		c.SetTrace(*trace)
		replies := make([]service.EvalReply, *count)
		errs := make([]error, *count)
		if *concurrent {
			var wg sync.WaitGroup
			for i := range replies {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					replies[i], errs[i] = c.Evaluate(*name, spec)
				}(i)
			}
			wg.Wait()
		} else {
			for i := range replies {
				replies[i], errs[i] = c.Evaluate(*name, spec)
			}
		}
		for i, rep := range replies {
			if errs[i] != nil {
				return errs[i]
			}
			fmt.Fprintf(out, "Log likelihood: %.6f\n", rep.LnL)
			fmt.Fprintf(out, "Log likelihood bits: %s\n", rep.LnLBits)
			fmt.Fprintf(out, "Timing: wait_us=%d exec_us=%d\n", rep.WaitMicros, rep.ExecMicros)
			if rep.TraceID != "" {
				fmt.Fprintf(out, "Trace: %s\n", rep.TraceID)
			}
			if rep.Cost != nil {
				fmt.Fprintf(out, "Cost: %s\n", rep.Cost)
			}
		}
		return nil

	case "optimize":
		passes := fs.Int("passes", 2, "branch-length smoothing passes")
		eps := fs.Float64("eps", 1e-3, "early-exit threshold on per-pass improvement")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rep, err := service.NewClient(*addr).Optimize(*name, service.OptimizeSpec{Passes: *passes, Eps: *eps})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Log likelihood: %.6f\n", rep.LnL)
		fmt.Fprintf(out, "Log likelihood bits: %s\n", rep.LnLBits)
		fmt.Fprintln(out, rep.Newick)
		return nil

	case "park":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		info, err := service.NewClient(*addr).Park(*name)
		if err != nil {
			return err
		}
		printSessionInfo(out, info)
		return nil

	case "delete":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if err := service.NewClient(*addr).DeleteSession(*name); err != nil {
			return err
		}
		fmt.Fprintf(out, "Deleted session %s\n", *name)
		return nil

	case "tree":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		nwk, err := service.NewClient(*addr).Tree(*name)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, nwk)
		return nil
	}
	return fmt.Errorf("client: unknown operation %q", op)
}

func printSessionInfo(out *os.File, info service.SessionInfo) {
	fmt.Fprintf(out, "Session: %s (%s)\n", info.Name, info.State)
	fmt.Fprintf(out, "Alignment: %d taxa, %d sites, %d patterns\n", info.Taxa, info.Sites, info.Patterns)
	mode := "in-core"
	if info.OutOfCore {
		mode = fmt.Sprintf("out-of-core, %d slots", info.Slots)
	}
	fmt.Fprintf(out, "Vectors: %s (quota %d B, grant %d B)\n", mode, info.QuotaBytes, info.GrantBytes)
	fmt.Fprintf(out, "Activity: %d evals, %d parks, %d revives\n", info.Evals, info.Parks, info.Revives)
	if info.Evals > 0 {
		fmt.Fprintf(out, "Log likelihood: %.6f\n", info.LnL)
		fmt.Fprintf(out, "Log likelihood bits: %s\n", info.LnLBits)
	}
}
