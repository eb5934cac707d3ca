// The experiment-service commands: `bctool serve` runs the HTTP daemon,
// `bctool submit` is its client, `bctool worker` is the internal
// sweep-cell executor serve keeps warm in a pool and hands one share of
// each fanned-out grid.

package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"bordercontrol/internal/serve"
)

// The daemon's HTTP timeouts. A client gets serveReadHeaderTimeout to send
// its request headers, and an idle keep-alive connection is closed after
// serveIdleTimeout. There is no write timeout: /v1/watch and the job event
// streams stay open for as long as their clients read.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// buildLogger turns a -log-level value into the daemon's slog.Logger on
// stderr, or nil (discard) for "off".
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: unknown -log-level %q (debug, info, warn, error, off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// serveCmd runs the experiment service until the context is cancelled
// (SIGINT/SIGTERM), then shuts down gracefully: the HTTP listener drains,
// the running job is cancelled cooperatively, queued jobs are marked
// cancelled, and every worker process is reaped before it returns.
func serveCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8373", "listen address")
	workers := fs.Int("workers", 0, "worker processes a sweep job fans out to, kept warm between jobs (0 = in-process); artifacts are byte-identical at any setting")
	jobs := fs.Int("jobs", 0, "host parallelism within a job or worker (0 = all cores)")
	queue := fs.Int("queue", 0, "job queue depth (0 = default 32); beyond it submissions get 503")
	cacheSize := fs.Int("cache-size", 0, "artifact cache entries (0 = default 128, negative disables)")
	watchBuf := fs.Int("watch-buffer", 0, "/v1/watch event ring size (0 = default 1024); slow subscribers past it see drop markers")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, off")
	quiet := fs.Bool("quiet", false, "shorthand for -log-level off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quiet {
		*logLevel = "off"
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{
		QueueDepth:  *queue,
		Workers:     *workers,
		Jobs:        *jobs,
		CacheSize:   *cacheSize,
		WatchBuffer: *watchBuf,
		Logger:      logger,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv.Start(ctx)
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	if logger != nil {
		logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()))
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Stop()
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
		srv.Stop()
		return ctx.Err()
	}
}

// workerCmd is the internal protocol endpoint `serve` spawns: a stream of
// JSON cell-list requests on stdin, each answered on stdout by NDJSON rows
// and an end record, logs on stderr. It exits when stdin closes.
func workerCmd(ctx context.Context) error {
	return serve.RunWorker(ctx, os.Stdin, os.Stdout)
}

// submitCmd sends one job to a running service, streams its progress to
// stderr and prints the artifact to stdout — so `bctool submit ... sweep
// -csv` pipes exactly like `bctool sweep -csv` does locally.
func submitCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8373", "service base URL")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for the service to answer /v1/healthz")
	quiet := fs.Bool("quiet", false, "suppress progress lines on stderr (the cache-hit note still prints)")
	ping := fs.Bool("ping", false, "print the service's health document (uptime, queue, jobs by state, version) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ping {
		if fs.NArg() > 0 {
			return fmt.Errorf("submit -ping: unexpected argument %q", fs.Arg(0))
		}
		c := &serve.Client{Base: *addr}
		if err := c.WaitReady(ctx, *wait); err != nil {
			return err
		}
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("service   %s\n", *addr)
		fmt.Printf("version   %s\n", h.Version)
		fmt.Printf("uptime    %s\n", (time.Duration(h.UptimeSeconds * float64(time.Second))).Round(time.Millisecond))
		fmt.Printf("queue     %d/%d\n", h.QueueDepth, h.QueueCapacity)
		fmt.Printf("cache     %d entries\n", h.CacheEntries)
		for _, st := range serve.States {
			fmt.Printf("jobs.%-10s %d\n", st, h.Jobs[st])
		}
		return nil
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("submit: missing job type (run, sweep, adversary, fleet)")
	}
	req, err := submitRequest(fs.Arg(0), fs.Args()[1:])
	if err != nil {
		return err
	}

	c := &serve.Client{Base: *addr}
	if err := c.WaitReady(ctx, *wait); err != nil {
		return err
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "submit: job %s accepted\n", st.ID)
	}
	final, err := c.Stream(ctx, st.ID, func(e serve.Event) {
		// The cache-hit note prints even under -quiet: whether a result was
		// recomputed is something scripts (and the smoke test) key on.
		if !*quiet || e.Type == "cache" {
			fmt.Fprintf(os.Stderr, "submit: %s\n", e.Msg)
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			return context.Canceled
		}
		return err
	}
	if final.Cached && !*quiet {
		fmt.Fprintf(os.Stderr, "submit: job %s served from cache\n", final.ID)
	}
	art, artErr := c.Artifact(ctx, final.ID)
	if artErr == nil {
		fmt.Print(art)
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("submit: job %s %s: %s", final.ID, final.State, final.Error)
	}
	return artErr
}

// submitRequest parses the job flags of `bctool submit typ` into the
// request it sends. serve.Flags declares them once for `bctool typ` too,
// so the spec is exactly the one the local command runs.
func submitRequest(typ string, args []string) (serve.Request, error) {
	fs := flag.NewFlagSet("submit "+typ, flag.ContinueOnError)
	spec, err := serve.Flags(typ, fs, nil)
	if err != nil {
		return serve.Request{}, err
	}
	if err := fs.Parse(args); err != nil {
		return serve.Request{}, err
	}
	if fs.NArg() > 0 {
		return serve.Request{}, fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return spec()
}
