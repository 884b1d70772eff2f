package server

import (
	"fmt"
	"net/http"

	"eventmatch/internal/server/tenant"
	"eventmatch/internal/telemetry"
)

// tenantStats is one tenant's telemetry rollup. Instances materialize
// lazily on a tenant's first appearance (submission, rejection, or
// recovery) and register under server.tenant.<name>.*, so the
// /api/v1/metrics snapshot carries a per-tenant breakdown next to the
// global counters.
type tenantStats struct {
	submitted, completed, failed, canceled *telemetry.Counter
	rejectedQueue, rejectedRate            *telemetry.Counter
	waitTimer                              *telemetry.Timer
}

// tenantStats returns (creating on first use) the rollup for one tenant.
// The name must already be normalized — every caller passes a jobSpec
// tenant or a validated request tenant.
func (s *Server) tenantStats(name string) *tenantStats {
	s.tenantsMu.Lock()
	defer s.tenantsMu.Unlock()
	if st := s.tenants[name]; st != nil {
		return st
	}
	prefix := "server.tenant." + name + "."
	st := &tenantStats{
		submitted:     s.reg.Counter(prefix + "submitted"),
		completed:     s.reg.Counter(prefix + "completed"),
		failed:        s.reg.Counter(prefix + "failed"),
		canceled:      s.reg.Counter(prefix + "canceled"),
		rejectedQueue: s.reg.Counter(prefix + "rejected_queue"),
		rejectedRate:  s.reg.Counter(prefix + "rejected_rate"),
		waitTimer:     s.reg.Timer(prefix + "job_wait"),
	}
	s.reg.RegisterFunc(prefix+"queued", func() int64 { return int64(s.jobQueue.tenantQueued(name)) })
	s.tenants[name] = st
	return st
}

// requestTenant extracts and validates the tenant identity of one HTTP
// request: the X-Tenant header, then the ?tenant= query parameter, then the
// default tenant. Invalid names (telemetry-unsafe characters, over-long)
// are client errors.
func requestTenant(r *http.Request) (string, error) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = r.URL.Query().Get("tenant")
	}
	name = tenant.Normalize(name)
	if !tenant.ValidName(name) {
		return "", fmt.Errorf("invalid tenant %q: want 1-%d characters of [A-Za-z0-9._-]",
			name, tenant.MaxNameLen)
	}
	return name, nil
}
