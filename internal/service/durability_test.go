package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tempo"
	"tempo/internal/scenario"
	"tempo/internal/service"
	"tempo/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServiceDurableRecovery is the service-level half of the crash
// recovery acceptance: tick a durable cluster partway, close the
// service, restart it on the same data directory, and require the
// recovered cluster to finish with a report byte-identical to an
// uninterrupted sequential run.
func TestServiceDurableRecovery(t *testing.T) {
	spec := smallSpec(t, 6)
	ref, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc, err := service.New(service.Config{Store: openStore(t, dir), SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.Create("c1", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := svc.Tick(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close() // drains and flushes + closes the store

	svc2, err := service.New(service.Config{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	c2, err := svc2.Get("c1")
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Session().Ticks(); got != 4 {
		t.Fatalf("recovered cluster at tick %d, want 4", got)
	}
	for !c2.Session().Done() {
		if _, _, err := svc2.Tick(context.Background(), c2); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c2.Session().Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered cluster's report differs from uninterrupted sequential run")
	}
}

// TestServiceDurableDelete removes on-disk state: after a delete, a
// restart does not resurrect the cluster, and the id is free for reuse.
func TestServiceDurableDelete(t *testing.T) {
	spec := smallSpec(t, 3)
	dir := t.TempDir()
	svc, err := service.New(service.Config{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.Create("gone", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Tick(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete(context.Background(), "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create("gone", spec); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	svc.Close()

	svc2, err := service.New(service.Config{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	c2, err := svc2.Get("gone")
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Session().Ticks(); got != 0 {
		t.Fatalf("recreated cluster recovered %d ticks from the deleted incarnation", got)
	}
}

// TestTickDeleteRace hammers Tick and Delete concurrently on one durable
// cluster id — the regression test for deletion racing the tick+append
// commit (run under -race). Every error must be one of the sanctioned
// outcomes; the WAL of a deleted cluster must be gone.
func TestTickDeleteRace(t *testing.T) {
	spec := smallSpec(t, 0)
	spec.Iterations = 50
	dir := t.TempDir()
	svc, err := service.New(service.Config{Store: openStore(t, dir), SnapshotEvery: 3, Shards: 2, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const rounds = 8
	for round := 0; round < rounds; round++ {
		id := fmt.Sprintf("contended-%d", round)
		c, err := svc.Create(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		fail := make(chan error, 16)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, _, err := svc.Tick(context.Background(), c)
					if err == nil {
						continue
					}
					if errors.Is(err, service.ErrNotFound) || errors.Is(err, service.ErrClosed) ||
						errors.Is(err, tempo.ErrSessionDone) {
						return
					}
					fail <- fmt.Errorf("tick: %w", err)
					return
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * time.Millisecond)
			if err := svc.Delete(context.Background(), id); err != nil && !errors.Is(err, service.ErrNotFound) {
				fail <- fmt.Errorf("delete: %w", err)
			}
		}()
		wg.Wait()
		close(fail)
		for err := range fail {
			t.Fatal(err)
		}
		if _, err := svc.Get(id); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("round %d: cluster survived delete: %v", round, err)
		}
	}
}

// TestQSWindowValidation is the API-level table test for windowed QS
// bounds: negative or reversed windows are 400s whose message names the
// half-open [from, to) convention; valid and open-ended windows succeed.
func TestQSWindowValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	spec := smallSpec(t, 2)
	createCluster(t, ts.URL, "c1", spec)
	if code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", ""); code != http.StatusOK {
		t.Fatalf("tick: %d: %s", code, body)
	}

	cases := []struct {
		name     string
		query    string
		want     int
		contains string
	}{
		{"negative from", "?from=-5m", http.StatusBadRequest, "[from, to)"},
		{"negative to", "?to=-5m", http.StatusBadRequest, "[from, to)"},
		{"reversed", "?from=1h&to=30m", http.StatusBadRequest, "[from, to)"},
		{"malformed from", "?from=sideways", http.StatusBadRequest, "malformed from"},
		{"malformed to", "?to=0x12", http.StatusBadRequest, "malformed to"},
		{"open ended", "", http.StatusOK, ""},
		{"explicit window", "?from=0s&to=5m", http.StatusOK, ""},
		{"from beyond horizon", "?from=100h", http.StatusOK, ""},
		{"degenerate empty", "?from=5m&to=5m", http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, "GET", ts.URL+"/v1/clusters/c1/qs"+tc.query, "")
			if code != tc.want {
				t.Fatalf("GET /qs%s = %d, want %d: %s", tc.query, code, tc.want, body)
			}
			if tc.contains != "" && !strings.Contains(string(body), tc.contains) {
				t.Fatalf("GET /qs%s error %q does not name %q", tc.query, body, tc.contains)
			}
		})
	}
}
