#ifndef LSMLAB_CORE_DB_ITER_H_
#define LSMLAB_CORE_DB_ITER_H_

#include "core/dbformat.h"
#include "obs/stats_registry.h"
#include "util/iterator.h"

namespace lsmlab {

/// Wraps a merged internal-key iterator into the user view: yields each
/// live user key once (its newest version visible at `sequence`), hides
/// tombstones and shadowed versions. Takes ownership of `internal_iter`.
/// Each positioning call is a PerfScope folding into `stats` (may be
/// null), so a user iterator's counters reach the DB's tickers call by
/// call, and an iterator driven inside an operation folds with it.
Iterator* NewDBIterator(const Comparator* user_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        StatsRegistry* stats);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_DB_ITER_H_
