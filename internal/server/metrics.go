package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promLabelEscaper escapes a label value for the Prometheus text
// exposition. The format defines exactly three escapes — backslash,
// double quote and newline; %q is wrong here because it emits Go-style
// \uXXXX sequences for non-ASCII values (exposition label values are
// raw UTF-8), which matters as soon as tenant names become label values.
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders one label="value" pair with exposition-format
// escaping applied to the value.
func promLabel(name, value string) string {
	return name + `="` + promLabelEscaper.Replace(value) + `"`
}

// writeMetrics renders the stats snapshot in the Prometheus text
// exposition format (hand-rolled: the format is three line shapes, not
// worth a dependency).
func (s *Server) writeMetrics(w http.ResponseWriter) {
	st := s.statsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	writeMetric(w, "aida_server_uptime_seconds", "gauge",
		"Seconds since the server started.", st.Server.UptimeSeconds)
	writeMetric(w, "aida_server_requests_total", "counter",
		"HTTP requests served across all endpoints.", float64(st.Server.Requests))
	writeMetric(w, "aida_server_documents_total", "counter",
		"Documents annotated by the annotate endpoints.", float64(st.Server.Documents))
	writeMetric(w, "aida_server_requests_canceled_total", "counter",
		"Requests abandoned mid-flight because the client disconnected.", float64(st.Server.Canceled))
	header(w, "aida_server_endpoint_requests_total", "counter",
		"HTTP requests served, by routed endpoint.")
	for _, e := range endpoints {
		fmt.Fprintf(w, "aida_server_endpoint_requests_total{%s} %d\n", promLabel("endpoint", e), st.Server.RequestsByEndpoint[e])
	}
	header(w, "aida_server_tenant_requests_total", "counter",
		"Admission attempts per tenant (admitted plus throttled).")
	tenants := s.cfg.Tenants
	if tenants != nil {
		for _, name := range tenants.Names() {
			fmt.Fprintf(w, "aida_server_tenant_requests_total{%s} %d\n",
				promLabel("tenant", name), st.Server.Tenants[name].Requests)
		}
	}
	header(w, "aida_server_tenant_throttled_total", "counter",
		"Requests rejected with 429 because the tenant was over quota.")
	if tenants != nil {
		for _, name := range tenants.Names() {
			fmt.Fprintf(w, "aida_server_tenant_throttled_total{%s} %d\n",
				promLabel("tenant", name), st.Server.Tenants[name].Throttled)
		}
	}
	header(w, "aida_server_tenant_in_flight", "gauge",
		"Requests currently in flight per tenant.")
	if tenants != nil {
		for _, name := range tenants.Names() {
			fmt.Fprintf(w, "aida_server_tenant_in_flight{%s} %d\n",
				promLabel("tenant", name), st.Server.Tenants[name].InFlight)
		}
	}
	header(w, "aida_server_request_seconds", "histogram",
		"Request duration, by routed endpoint.")
	for _, e := range endpoints {
		ls, ok := st.Server.LatencyByEndpoint[e]
		if !ok {
			continue
		}
		for i := 0; i <= numLatencyBuckets; i++ {
			le := bucketLabel(i)
			fmt.Fprintf(w, "aida_server_request_seconds_bucket{%s,%s} %d\n",
				promLabel("endpoint", e), promLabel("le", le), ls.Buckets[le])
		}
		fmt.Fprintf(w, "aida_server_request_seconds_sum{%s} %g\n", promLabel("endpoint", e), ls.SumSeconds)
		fmt.Fprintf(w, "aida_server_request_seconds_count{%s} %d\n", promLabel("endpoint", e), ls.Count)
	}
	writeMetric(w, "aida_kb_entities", "gauge",
		"Entities in the loaded knowledge base.", float64(st.KB.Entities))
	writeMetric(w, "aida_kb_generation", "gauge",
		"Serving knowledge-base generation (0 = as loaded, +1 per applied live delta).", float64(st.KB.Generation))
	writeMetric(w, "aida_kb_delta_applies_total", "counter",
		"Live KB deltas applied since boot.", float64(st.KB.DeltaApplies))
	writeMetric(w, "aida_kb_delta_entities_total", "counter",
		"Entities added by live KB deltas since boot.", float64(st.KB.DeltaEntities))
	writeMetric(w, "aida_kb_delta_rows_total", "counter",
		"Dictionary rows added by live KB deltas since boot.", float64(st.KB.DeltaRows))
	writeMetric(w, "aida_kb_shards", "gauge",
		"Shards backing the knowledge base (1 = unsharded).", float64(st.KB.Shards))
	writeMetric(w, "aida_kb_remote_shards", "gauge",
		"Width of the remote shard fleet behind this server (0 = KB hosted in-process).", float64(st.KB.RemoteShards))
	writeMetric(w, "aida_kb_remote_requests_total", "counter",
		"Logical KB store operations sent to the remote shard fleet.", float64(st.KB.RemoteRequests))
	writeMetric(w, "aida_kb_remote_hedges_total", "counter",
		"Speculative duplicate fetches launched past the hedge latency threshold.", float64(st.KB.RemoteHedges))
	writeMetric(w, "aida_kb_remote_retries_total", "counter",
		"Remote fetch attempts relaunched on another replica after an error or fingerprint mismatch.", float64(st.KB.RemoteRetries))
	writeMetric(w, "aida_kb_remote_failovers_total", "counter",
		"Remote operations ultimately served by a non-primary replica after the primary failed.", float64(st.KB.RemoteFailovers))
}

func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeMetric(w io.Writer, name, typ, help string, v float64) {
	header(w, name, typ, help)
	fmt.Fprintf(w, "%s %g\n", name, v)
}
