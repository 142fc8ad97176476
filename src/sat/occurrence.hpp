// Literal-indexed occurrence lists and clause signatures.
//
// Support structures for the inprocessing engine (sat/simplify.hpp): the
// simplifier walks "which clauses contain literal l" queries for backward
// subsumption, and prunes candidate pairs with 64-bit Bloom signatures
// before paying for a full literal scan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace janus::sat {

/// 64-bit Bloom signature over a clause's variables. If `sig(C) & ~sig(D)`
/// is non-zero, C cannot be a sub(multi)set of D, so a subsumption check
/// between them is skipped without touching the literals.
[[nodiscard]] std::uint64_t clause_signature(std::span<const lit> lits);

/// For each literal, the caller-defined item indices of the clauses that
/// contain it. The simplifier stores indices into its per-round item array
/// rather than raw clause refs, so entries stay cheap to validate lazily
/// after clauses are strengthened, replaced, or deleted mid-round.
class occurrence_index {
 public:
  /// Drop all lists and size the index for `num_vars` variables.
  void reset(int num_vars);

  /// Record that the item (clause) `item` contains literal `l`.
  void add(lit l, std::uint32_t item) {
    lists_[static_cast<std::size_t>(l.code())].push_back(item);
  }

  [[nodiscard]] const std::vector<std::uint32_t>& operator[](lit l) const {
    return lists_[static_cast<std::size_t>(l.code())];
  }

 private:
  std::vector<std::vector<std::uint32_t>> lists_;  // indexed by lit code
};

}  // namespace janus::sat
