package cluster

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShardServerBodyCap: a request body over the cap is refused with
// 413 before it is buffered; one under it reaches the host (and fails
// there, with the host's 400, for naming no shard).
func TestShardServerBodyCap(t *testing.T) {
	h := NewHost()
	defer h.Close()
	sv := NewShardServer(h)
	if sv.maxBody != maxShardBody {
		t.Fatalf("default body cap %d, want %d", sv.maxBody, maxShardBody)
	}
	sv.maxBody = 1 << 10
	ts := httptest.NewServer(sv)
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	big := `{"job":"` + strings.Repeat("x", 2<<10) + `"}`
	for _, path := range []string{"/shards/create", "/shards/step", "/shards/release"} {
		if got := post(path, big); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(big), got)
		}
	}
	if got := post("/shards/release", `{"id":"nope"}`); got != http.StatusBadRequest {
		t.Errorf("small body: status %d, want the host's 400", got)
	}
}

// TestHTTPServerHeaderTimeout: the daemons' server drops a connection
// that never finishes its request headers, and sets no read or write
// deadline that would cut a long-lived stream.
func TestHTTPServerHeaderTimeout(t *testing.T) {
	srv := NewHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v set: would cut /trace/stream", srv.ReadTimeout, srv.WriteTimeout)
	}

	srv.ReadHeaderTimeout = 50 * time.Millisecond // keep the test fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil { // headers never end
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	// The server answers 408 (or just closes); either way the read
	// returns long before the 10 s deadline instead of hanging.
	start := time.Now()
	_, _ = bufio.NewReader(conn).ReadString('\n')
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stalled-header connection still open after %v", waited)
	}
}
