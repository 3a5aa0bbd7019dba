// Command fmregistryd serves one shard of the distributed fleet
// registry: a registry.Durable behind the cluster wire protocol.
// Run as a primary it accepts enrollments and synchronously replicates
// every record to its follower before acknowledging; run as a follower
// it applies the primary's stream, serves reads, and can be promoted
// to primary at runtime (deterministic failover). A primary whose
// required follower link is down refuses enrollments — fencing — so an
// acknowledged record always exists on both nodes' disks.
//
// Usage:
//
//	fmregistryd -addr :8910 -dir /var/lib/fmregistry/a
//	fmregistryd -addr :8910 -dir ... -follower 10.0.0.2:8910
//	fmregistryd -addr :8910 -dir ... -role follower
//	fmregistryd -version
//
// With -metrics-addr the daemon exposes GET /metrics (Prometheus text),
// /debug/vars and /healthz on a separate HTTP listener, including the
// fmregistry_wal_segments and fmregistry_last_compaction_gen gauges
// that watch compaction health.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/flashmark/flashmark/internal/buildinfo"
	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/metrics"
	"github.com/flashmark/flashmark/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fmregistryd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fmregistryd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8910", "listen address for the registry wire protocol")
		dir        = fs.String("dir", "", "directory for the durable registry (required)")
		role       = fs.String("role", "primary", "node role: primary or follower")
		follower   = fs.String("follower", "", "follower address this primary replicates to")
		requireFol = fs.Bool("require-follower", true, "fence enrollments while the follower link is down (only meaningful with -follower)")
		metricsAt  = fs.String("metrics-addr", "", "separate HTTP listen address for /metrics, /debug/vars and /healthz (empty disables)")
		shards     = fs.Int("shards", 0, "registry index lock stripes (0 selects the default)")
		compactN   = fs.Int("compact-every", 0, "snapshot compaction threshold in WAL records (0 selects the default)")
		timeout    = fs.Duration("timeout", 0, "replication round-trip bound (0 selects 5s)")
		version    = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("fmregistryd"))
		return nil
	}
	if *dir == "" {
		return errors.New("-dir is required (the durable registry directory)")
	}
	var nodeRole cluster.Role
	switch *role {
	case "primary":
		nodeRole = cluster.RolePrimary
	case "follower":
		nodeRole = cluster.RoleFollower
		if *follower != "" {
			return errors.New("-follower is for primaries; a follower does not replicate onward")
		}
	default:
		return fmt.Errorf("unknown -role %q (want primary or follower)", *role)
	}

	logger := log.New(os.Stderr, "fmregistryd: ", log.LstdFlags)
	store, err := registry.Open(*dir, registry.Options{Shards: *shards, CompactEvery: *compactN})
	if err != nil {
		return fmt.Errorf("opening registry %s: %w", *dir, err)
	}
	defer store.Close()
	st := store.Stats()
	logger.Printf("registry %s: %d identities (%d conflicted) recovered in %v",
		*dir, st.Keys, st.Conflicts, st.Recovery.Round(time.Millisecond))

	node, err := cluster.NewNode(cluster.NodeConfig{
		Store:           store,
		Role:            nodeRole,
		FollowerAddr:    *follower,
		RequireFollower: *requireFol,
		Timeout:         *timeout,
		Logf:            logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("%s listening on %s", *role, ln.Addr())
		errc <- node.Serve(ln)
	}()

	var metricsSrv *http.Server
	if *metricsAt != "" {
		metricsSrv = &http.Server{
			Addr:              *metricsAt,
			Handler:           metricsMux(store, node),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Printf("metrics listening on %s", *metricsAt)
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		node.Close()
		return err
	case s := <-sig:
		logger.Printf("%s received, shutting down", s)
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := node.Close(); err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	logger.Printf("shut down cleanly")
	return nil
}

// metricsMux exposes the shard's registry counters and replication
// health on a mux of its own.
func metricsMux(store *registry.Durable, node *cluster.Node) *http.ServeMux {
	reg := metrics.NewRegistry()
	registry.RegisterMetrics(reg, store)
	reg.GaugeFunc("fmcluster_is_primary", "1 when this node serves as primary",
		func() int64 {
			if node.Role() == cluster.RolePrimary {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("fmcluster_follower_link_up", "1 when the replication link to the follower is established",
		func() int64 {
			if node.LinkUp() {
				return 1
			}
			return 0
		})
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", reg.VarsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
