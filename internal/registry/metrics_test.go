package registry

import (
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/metrics"
)

// TestRegisterMetrics pins the fmregistry_* exposition: every gauge is
// registered as a gauge and samples the store's live Stats.
func TestRegisterMetrics(t *testing.T) {
	store := NewMemory(0)
	reg := metrics.NewRegistry()
	RegisterMetrics(reg, store)
	if _, err := store.Enroll(enr("TC", 1, fpByte(1), "test")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Enroll(enr("TC", 1, fpByte(2), "test")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE fmregistry_keys gauge\nfmregistry_keys 1\n",
		"# TYPE fmregistry_enrollments gauge\nfmregistry_enrollments 2\n",
		"# TYPE fmregistry_conflicts gauge\nfmregistry_conflicts 1\n",
		"# TYPE fmregistry_lookups gauge\n",
		"# TYPE fmregistry_wal_appends_total gauge\n",
		"# TYPE fmregistry_wal_fsyncs_total gauge\n",
		"# TYPE fmregistry_compactions_total gauge\n",
		"# TYPE fmregistry_wal_segments gauge\n",
		"# TYPE fmregistry_last_compaction_gen gauge\n",
		"# TYPE fmregistry_recovery_us gauge\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition lacks %q:\n%s", line, out)
		}
	}
}
