// Package siteregfix exercises every sitereg rule.
package siteregfix

import (
	"context"

	"joinpebble/internal/faultinject"
)

const (
	// SiteGood reuses a registered site value; in the fixture set it is
	// declared exactly once, so only the real tree's owner would clash.
	SiteGood = "engine/rung"
	// SiteUnregistered is a well-formed constant missing from DESIGN.md.
	SiteUnregistered = "fixture/unregistered"
	// SiteDupA and SiteDupB claim the same value from two constants.
	SiteDupA = "solver/component"
	SiteDupB = "solver/component"
)

func fireGood(ctx context.Context) error {
	return faultinject.Fire(ctx, SiteGood)
}

func fireLiteral(ctx context.Context) error {
	return faultinject.Fire(ctx, "fixture/inline") // want `faultinject\.Fire site must be a named package-level constant`
}

func fireLocal(ctx context.Context) error {
	const site = "fixture/local"
	return faultinject.Fire(ctx, site) // want `faultinject\.Fire site must be a named package-level constant`
}

func fireUnregistered(ctx context.Context) error {
	return faultinject.Fire(ctx, SiteUnregistered) // want `faultinject site "fixture/unregistered" is not in DESIGN\.md's site registry`
}

func fireDups(ctx context.Context) {
	_ = faultinject.Fire(ctx, SiteDupA) // want `fault site "solver/component" is also declared by siteregfix\.SiteDupB`
	_ = faultinject.Fire(ctx, SiteDupB) // want `fault site "solver/component" is also declared by siteregfix\.SiteDupA`
}

func armLiteral() {
	faultinject.Arm("fixture/armed", faultinject.Fault{}) // want `faultinject\.Arm site must be a named package-level constant`
}
