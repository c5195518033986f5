// Load mode: a concurrent-client generator that measures the serving
// throughput of a live aced, the experiment behind BENCH_batch.json.
// N clients share one registered session (one key upload) and fire
// encrypted inferences back to back for a fixed window; the report is
// client-observed inferences/sec and latency quantiles plus the
// server-side batching counters scraped from /metrics.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"antace/internal/fheclient"
	"antace/internal/obs"
)

// loadReport is the machine-readable result of one load run, printed as
// a single JSON line on stdout so bench scripts can consume it.
type loadReport struct {
	URL          string             `json:"url"`
	Clients      int                `json:"clients"`
	WindowSec    float64            `json:"window_sec"`  // requested measurement window
	ElapsedSec   float64            `json:"elapsed_sec"` // actual window (extended to the first completion)
	Served       int                `json:"served"`
	Errors       int                `json:"errors"`
	InferPerSec  float64            `json:"inferences_per_sec"`
	LatSecP50    float64            `json:"latency_sec_p50"`
	LatSecP90    float64            `json:"latency_sec_p90"`
	LatSecP99    float64            `json:"latency_sec_p99"`
	LatSecMean   float64            `json:"latency_sec_mean"`
	LatSecMax    float64            `json:"latency_sec_max"`
	ServerScrape map[string]float64 `json:"server_metrics,omitempty"`
}

// runLoad drives the generator end to end and emits the report.
// The window is extended until at least one inference completes, so a
// model whose single-inference latency exceeds the window still yields
// a meaningful rate; requests still in flight at the cutoff are
// canceled and count as neither served nor failed.
func runLoad(url string, clients int, window, reqDeadline time.Duration) error {
	if clients < 1 {
		return fmt.Errorf("load: need at least 1 client, got %d", clients)
	}
	// Setup (keygen + key upload) is not part of the measured window but
	// scales with the ring and the rotation set — at logN 12 with a
	// batching rotation set it runs minutes, so it gets the same generous
	// deadline as a request.
	setupCtx, cancelSetup := context.WithTimeout(context.Background(), reqDeadline)
	defer cancelSetup()
	cl, err := fheclient.Dial(setupCtx, url, nil)
	if err != nil {
		return err
	}
	spec := cl.Spec()
	fmt.Fprintf(os.Stderr, "load: program %q vec_len=%d batch_stride=%d; registering session (keygen)...\n",
		spec.Name, spec.VecLen, spec.BatchStride)
	regStart := time.Now()
	if _, err := cl.Register(setupCtx, nil); err != nil {
		return fmt.Errorf("load: registering session: %w", err)
	}
	fmt.Fprintf(os.Stderr, "load: session registered in %v; running %d clients for %v\n",
		time.Since(regStart).Round(time.Millisecond), clients, window)

	var (
		mu        sync.Mutex
		latencies []float64
		errCount  int
		firstDone = make(chan struct{})
		closeOnce sync.Once
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			// Each client's input is distinct so lanes of one batch carry
			// different data — the differential suite proves correctness,
			// the load run just needs realistic non-identical traffic.
			values := make([]float64, spec.VecLen)
			for j := range values {
				values[j] = math.Sin(float64(j) + float64(idx)*0.37)
			}
			ct, err := cl.Encrypt(values)
			if err != nil {
				mu.Lock()
				errCount++
				mu.Unlock()
				return
			}
			for ctx.Err() == nil {
				t0 := time.Now()
				rctx, rcancel := context.WithTimeout(ctx, reqDeadline)
				out, lane, err := cl.InferCipherLane(rctx, ct)
				rcancel()
				if err != nil {
					if ctx.Err() != nil {
						return // phase cutoff, not a failure
					}
					mu.Lock()
					errCount++
					mu.Unlock()
					continue
				}
				if _, err := cl.DecryptLane(out, lane); err != nil {
					mu.Lock()
					errCount++
					mu.Unlock()
					continue
				}
				mu.Lock()
				latencies = append(latencies, time.Since(t0).Seconds())
				served := len(latencies)
				mu.Unlock()
				closeOnce.Do(func() { close(firstDone) })
				fmt.Fprintf(os.Stderr, "load: client %d served inference #%d in %v\n",
					idx, served, time.Since(t0).Round(time.Millisecond))
			}
		}(i)
	}

	// The window closes at max(window, first completion): a run shorter
	// than one inference would otherwise report a rate of zero. After the
	// first completion a short grace lets the rest of its wave land —
	// lane-mates of one fused evaluation finish together, and cutting at
	// the first member would credit the batch a single inference.
	<-time.After(window)
	select {
	case <-firstDone:
	default:
		fmt.Fprintf(os.Stderr, "load: window elapsed with nothing served yet; extending until the first completion\n")
		<-firstDone
	}
	grace := window / 4
	if grace > 15*time.Second {
		grace = 15 * time.Second
	}
	time.Sleep(grace)
	elapsed := time.Since(start)
	cancel()
	wg.Wait()

	rep := loadReport{
		URL:        url,
		Clients:    clients,
		WindowSec:  window.Seconds(),
		ElapsedSec: elapsed.Seconds(),
		Served:     len(latencies),
		Errors:     errCount,
	}
	if rep.ElapsedSec > 0 {
		rep.InferPerSec = float64(rep.Served) / rep.ElapsedSec
	}
	if n := len(latencies); n > 0 {
		w := obs.NewWindow(n)
		sum := 0.0
		for _, v := range latencies {
			w.Add(v)
			sum += v
		}
		rep.LatSecP50 = w.Quantile(0.5)
		rep.LatSecP90 = w.Quantile(0.9)
		rep.LatSecP99 = w.Quantile(0.99)
		rep.LatSecMax = w.Quantile(1)
		rep.LatSecMean = sum / float64(n)
	}
	if m, err := scrapeMetrics(url); err != nil {
		fmt.Fprintf(os.Stderr, "load: scraping /metrics: %v\n", err)
	} else {
		rep.ServerScrape = m
	}

	fmt.Fprintf(os.Stderr, "load: served %d in %v (%.4f inferences/sec), %d errors\n",
		rep.Served, elapsed.Round(time.Second), rep.InferPerSec, rep.Errors)
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// loadScrapeSeries is the subset of the server's exposition the report
// embeds: the batching counters the benchmark compares, the scheduler
// drop counters, and the server-observed latency quantiles.
var loadScrapeSeries = []string{
	"ace_requests_served_total",
	"ace_requests_rejected_total",
	"ace_queue_expired_total",
	"ace_batches_total",
	"ace_batched_jobs_total",
	"ace_batch_solo_fallbacks_total",
	"ace_batch_lanes",
	"ace_batch_stride",
	`ace_latency_ms{quantile="0.5"}`,
	`ace_latency_ms{quantile="0.9"}`,
	`ace_latency_ms{quantile="0.99"}`,
}

// scrapeMetrics pulls /metrics, parses it with obs.ParseExposition and
// extracts the series in loadScrapeSeries, each keyed by its name and,
// when it has labels, its sorted label set as the page writes it.
func scrapeMetrics(url string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %s", resp.Status)
	}
	want := make(map[string]bool, len(loadScrapeSeries))
	for _, s := range loadScrapeSeries {
		want[s] = true
	}
	fams, err := obs.ParseExposition(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				labels := make([]string, 0, len(s.Labels))
				for k, v := range s.Labels {
					labels = append(labels, fmt.Sprintf(`%s="%s"`, k, v))
				}
				sort.Strings(labels)
				key += "{" + strings.Join(labels, ",") + "}"
			}
			if want[key] {
				out[key] = s.Value
			}
		}
	}
	return out, nil
}
