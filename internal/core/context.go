package core

import (
	"context"

	"valentine/internal/profile"
	"valentine/internal/table"
)

// ProfilePair resolves a table pair's profiles through store; a nil store
// yields fresh one-shot profiles private to the call, sharing one private
// value dictionary so even the store-less path scores on the integer-set
// kernels (scores are bit-identical to the map-based kernels either way).
func ProfilePair(store *profile.Store, source, target *table.Table) (*profile.TableProfile, *profile.TableProfile) {
	if store == nil {
		return profile.NewPair(source, target)
	}
	return store.Of(source), store.Of(target)
}

// MatchWithContext runs m over a plain table pair under ctx: a cancellation
// check up front, then the pair is profiled through store (nil store means
// one-shot private profiles) and scored. Scores are identical whichever
// store profiles the pair.
func MatchWithContext(ctx context.Context, m Matcher, store *profile.Store, source, target *table.Table) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, tp := ProfilePair(store, source, target)
	return m.MatchProfilesContext(ctx, sp, tp)
}

// MatchProfilesWithContext is MatchWithContext over already-profiled tables.
func MatchProfilesWithContext(ctx context.Context, m Matcher, source, target *profile.TableProfile) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.MatchProfilesContext(ctx, source, target)
}

// ValidatePair validates both profiled tables — the shared preamble of
// every MatchProfilesContext implementation.
func ValidatePair(source, target *profile.TableProfile) error {
	if err := source.Table().Validate(); err != nil {
		return err
	}
	return target.Table().Validate()
}
