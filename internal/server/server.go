// Package server serves an embedded engine over TCP using the wire
// protocol: one engine.Session per connection, pipelined request
// processing (a reader goroutine reads ahead while the session executes,
// responses stream back in request order), and graceful shutdown that
// drains in-flight statements.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plsqlaway/internal/engine"
)

// Options tunes a Server. The zero value is production-ready.
type Options struct {
	// Banner is the server string sent in the Ready frame.
	Banner string
	// QueueDepth bounds how many decoded requests a connection's reader
	// may buffer ahead of execution — the pipelining window. Beyond it
	// the reader stops reading, applying TCP backpressure. Default 128.
	QueueDepth int
	// DrainGrace is how long a draining connection keeps reading requests
	// that were already on the wire when shutdown began; everything read
	// within the window is executed and answered. Default 100ms.
	DrainGrace time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Banner == "" {
		o.Banner = "plsqlaway"
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 100 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Server accepts wire-protocol connections onto one shared engine.
type Server struct {
	eng     *engine.Engine
	opts    Options
	metrics *srvMetrics  // nil unless the engine carries a registry
	nconns  atomic.Int64 // live connections, for StatsReply.ActiveConns

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup // one per live connection
}

// New builds a server over e. When e was built with a metrics registry,
// the server publishes its connection and wire-traffic series into it.
func New(e *engine.Engine, opts Options) *Server {
	opts.defaults()
	s := &Server{eng: e, opts: opts, conns: map[*conn]struct{}{}}
	if reg := e.Metrics(); reg != nil {
		s.metrics = newSrvMetrics(reg)
	}
	return s
}

// ConnCount reports the number of currently open connections.
func (s *Server) ConnCount() int64 { return s.nconns.Load() }

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until it is closed (usually via
// Shutdown). Each connection runs its own session goroutines.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.nconns.Add(1)
		s.metrics.noteConnOpen()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.nconns.Add(-1)
				s.metrics.noteConnClose()
				s.wg.Done()
			}()
			c.serve()
		}()
	}
}

// Shutdown stops accepting connections and drains the live ones: each
// connection stops reading new requests, finishes executing everything
// already read (responses included), then closes. If ctx expires first,
// remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: shutdown forced after %v: %w", timeoutOf(ctx), ctx.Err())
	}
}

func timeoutOf(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl)
	}
	return 0
}
