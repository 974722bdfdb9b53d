package reachgrid

import (
	"context"

	"streach/internal/pagefile"
	"streach/internal/queries"
)

// Reach is ReachCounted without the infection count, charging a
// query-scoped accountant so sequential runs spanning blob reads are
// classified as in the paper's cost model.
func (ix *Index) Reach(q queries.Query) (bool, error) {
	var acct pagefile.Stats
	ok, _, err := ix.ReachCounted(context.Background(), q, &acct)
	return ok, err
}

// SPJReach is SPJReachCounted without the infection count.
func (ix *Index) SPJReach(q queries.Query) (bool, error) {
	var acct pagefile.Stats
	ok, _, err := ix.SPJReachCounted(context.Background(), q, &acct)
	return ok, err
}
