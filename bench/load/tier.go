package main

// tier.go stands the real tier up in-process on loopback HTTP:
// router → 2 mediator shards → 3 sources, each behind its own
// http.Server and its own byte-counting listener, as separate daemons
// would be.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

var (
	shardNames  = []string{"shard-a", "shard-b"}
	sourceNames = []string{"s0", "s1", "s2"}
)

// wireCounter counts bytes read and written on every accepted connection
// of one layer's listeners.
type wireCounter struct{ n atomic.Int64 }

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}

// server is one daemon's HTTP surface. The handler can be swapped, which
// is how a shard "restarts": the old mediator is closed and a new one is
// built over the same state directory behind the same address.
type server struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

func listen(c *wireCounter) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return countingListener{ln, c}, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, url string, h http.Handler) *server {
	s := &server{url: url, done: make(chan struct{})}
	s.set(h)
	s.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*s.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s
}

func (s *server) set(h http.Handler) { s.handler.Store(&h) }

func (s *server) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// tier is the running system under test.
type tier struct {
	stateRoot string
	stateFS   string

	sources   []*sourceNode
	shards    []*shardNode
	specs     []shardSpec
	router    *routerNode
	sourceSrv []*server
	shardSrv  []*server
	routerSrv *server
	place     placement

	// Bytes on the wire per layer: the router's listener, the shards'
	// listeners, the sources' listeners.
	routerWire, shardWire, sourceWire wireCounter

	tr *tracer
}

// chooseStateRoot puts WAL state on tmpfs when /dev/shm has room: two
// shards fsyncing a shared real disk were the largest noise source of
// the rejected benchmark (README, "tmpfs"). The fallback stays inside
// the working directory.
func chooseStateRoot() (dir, fs string, err error) {
	const need = 256 << 20
	var st syscall.Statfs_t
	if syscall.Statfs("/dev/shm", &st) == nil && uint64(st.Bavail)*uint64(st.Bsize) >= need {
		if dir, err := os.MkdirTemp("/dev/shm", "piye-load-"); err == nil {
			return dir, "tmpfs:/dev/shm", nil
		}
	}
	if err := os.MkdirAll(".bench_state", 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(".bench_state", "piye-load-")
	return dir, "disk:.bench_state", err
}

// startTier builds sources, shards and router bottom-up, so every
// daemon's first schema refresh or health probe finds its peers serving.
func startTier(data [][]patient, seed uint64, tr *tracer) (*tier, error) {
	root, fs, err := chooseStateRoot()
	if err != nil {
		return nil, err
	}
	t := &tier{stateRoot: root, stateFS: fs, tr: tr}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()

	var sourcePeers []peer
	for i, name := range sourceNames {
		node, err := newSourceNode(name, data[i], seed+uint64(i))
		if err != nil {
			return nil, err
		}
		ln, url, err := listen(&t.sourceWire)
		if err != nil {
			return nil, err
		}
		t.sources = append(t.sources, node)
		t.sourceSrv = append(t.sourceSrv, serve(ln, url, tr.middleware(layerSourceHandle, name, node.handler())))
		sourcePeers = append(sourcePeers, peer{name, url})
	}

	// Every shard's address is known before any shard is built: each one's
	// ownership gate is configured with all its peers' URLs.
	var shardPeers []peer
	var shardListeners []net.Listener
	for _, name := range shardNames {
		ln, url, err := listen(&t.shardWire)
		if err != nil {
			return nil, err
		}
		shardListeners = append(shardListeners, ln)
		shardPeers = append(shardPeers, peer{name, url})
	}
	for i, name := range shardNames {
		spec := shardSpec{
			id: name, stateDir: filepath.Join(root, name),
			shards: shardPeers, sources: sourcePeers, obs: tr,
		}
		node, err := newShardNode(spec)
		if err != nil {
			shardListeners[i].Close()
			return nil, fmt.Errorf("shard %s: %w", name, err)
		}
		t.specs = append(t.specs, spec)
		t.shards = append(t.shards, node)
		t.shardSrv = append(t.shardSrv, serve(shardListeners[i], shardPeers[i].url, t.shardHandler(node)))
	}
	if t.place, err = newPlacement(shardNames); err != nil {
		return nil, err
	}

	ln, url, err := listen(&t.routerWire)
	if err != nil {
		return nil, err
	}
	if t.router, err = newRouterNode(shardPeers); err != nil {
		ln.Close()
		return nil, err
	}
	t.routerSrv = serve(ln, url, tr.middleware(layerRouter, "router", t.router.handler()))
	ok = true
	return t, nil
}

func (t *tier) shardHandler(node *shardNode) http.Handler {
	return t.tr.middleware(layerShard, node.id, node.handler())
}

// restartShards closes every shard's mediator and rebuilds it from its
// state directory: warehouse and plan cache are lost, ledger and history
// come back from snapshot + WAL. No query is in flight meanwhile; the
// closed mediator keeps answering the router's health probes until the
// new one takes the address, so the router never marks the shard down.
// Returns the time spent rebuilding.
func (t *tier) restartShards() (time.Duration, error) {
	t0 := time.Now()
	for i, node := range t.shards {
		if err := node.close(); err != nil {
			return 0, fmt.Errorf("closing %s: %w", node.id, err)
		}
		fresh, err := newShardNode(t.specs[i])
		if err != nil {
			return 0, fmt.Errorf("shard %s: %w", node.id, err)
		}
		t.shards[i] = fresh
		t.shardSrv[i].set(t.shardHandler(fresh))
	}
	return time.Since(t0), nil
}

// stateBytes is the on-disk size of every shard's state directory.
func (t *tier) stateBytes() (wal, snapshot int64) {
	for _, spec := range t.specs {
		if st, err := os.Stat(filepath.Join(spec.stateDir, "wal.log")); err == nil {
			wal += st.Size()
		}
		if st, err := os.Stat(filepath.Join(spec.stateDir, "snapshot.dat")); err == nil {
			snapshot += st.Size()
		}
	}
	return wal, snapshot
}

// stop shuts every daemon down and removes the state directory.
func (t *tier) stop() {
	if t.routerSrv != nil {
		t.routerSrv.shutdown()
	}
	if t.router != nil {
		t.router.close()
	}
	for _, s := range t.shardSrv {
		s.shutdown()
	}
	for _, n := range t.shards {
		_ = n.close() // teardown: the state directory is removed next
	}
	for _, s := range t.sourceSrv {
		s.shutdown()
	}
	os.RemoveAll(t.stateRoot)
}
