package main

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the connection timeouts and the absence
// of a write deadline (SSE streams and cold computations outlive any).
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil || hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("handler set %v, ReadHeaderTimeout %v, IdleTimeout %v; want a handler and both timeouts positive",
			hs.Handler != nil, hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", hs.WriteTimeout)
	}
}

// TestNewHTTPServerDropsSlowHeaders checks that the header deadline is
// live: a client that opens a connection and never finishes its request
// headers is disconnected instead of holding the connection forever.
func TestNewHTTPServerDropsSlowHeaders(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close() //tnpu:errok (only listener-close errors; Serve's result is checked below)
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server either closes the connection outright or answers 408 and
	// then closes; either way the read must end well before the deadline.
	start := time.Now()
	br := bufio.NewReader(conn)
	for {
		if _, err := br.ReadByte(); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept a connection with incomplete headers open")
			}
			break
		}
	}
	if d := time.Since(start); d > 4*time.Second {
		t.Errorf("connection closed only after %v", d)
	}
}
