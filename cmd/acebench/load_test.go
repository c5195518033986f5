package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"antace/internal/obs"
)

// TestScrapeMetricsKeys: the load report keys a series by its name, plus
// its label set when it has one, and keeps only loadScrapeSeries.
func TestScrapeMetricsKeys(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e := obs.NewExposition()
		e.Family("ace_requests_served_total", "Served.", obs.Counter).Add(7)
		e.Family("ace_sessions", "Not scraped.", obs.Gauge).Add(2)
		lq := e.Family("ace_latency_ms", "Latency.", obs.Gauge)
		lq.Add(12.5, obs.Label{Name: "quantile", Value: "0.5"})
		lq.Add(40, obs.Label{Name: "quantile", Value: "0.99"})
		e.Write(w)
	}))
	defer srv.Close()
	got, err := scrapeMetrics(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ace_requests_served_total":       7,
		`ace_latency_ms{quantile="0.5"}`:  12.5,
		`ace_latency_ms{quantile="0.99"}`: 40,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scraped %v, want %v", got, want)
	}
}
