package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memotable"
)

// runServe runs the multi-tenant service daemon: one shared engine, the
// HTTP front-end from internal/service, graceful drain on SIGINT or
// SIGTERM. The listen address is announced on stderr (with the resolved
// port, so ":0" is usable in tests), and a final summary — service
// counters plus the shared engine's run footer — prints on shutdown.
func runServe(addr string, eng *memotable.Engine, cfg memotable.ServiceConfig) int {
	svc := memotable.NewService(eng, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	srv := &http.Server{Handler: svc.Handler()}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "memosim: serving on http://%s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	exit := 0
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "memosim: %v, draining\n", sig)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			exit = 1
		}
		cancel()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			exit = 1
		}
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		exit = 1
	}

	elapsed := time.Since(start)
	ss := svc.Stats()
	fmt.Fprintf(os.Stderr, "service: %d requests from %d tenants in %v (%d runs, %d coalesced, %d rejected)\n",
		ss.Requests, ss.Tenants, elapsed.Round(time.Millisecond),
		ss.RunsStarted, ss.RunsCoalesced, ss.Rejected)
	engineSummary(os.Stderr, eng.Stats(), elapsed)
	return exit
}
