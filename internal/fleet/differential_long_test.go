//go:build chaos

package fleet

// The long form of the serving-path differential harness runs under
// the chaos tag: go test -tags chaos ./internal/fleet/
func init() { servingDiffConfigs = 200 }
