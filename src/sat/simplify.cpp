#include "sat/simplify.hpp"

#include <algorithm>
#include <utility>

namespace janus::sat {

namespace {
inline bool is_true(lbool v) { return v == lbool::true_value; }
inline bool is_false(lbool v) { return v == lbool::false_value; }
inline bool is_undef(lbool v) { return v == lbool::undef; }

// Backward subsumption skips a clause whose cheapest pivot literal still has
// an occurrence list longer than this (quadratic blowup guard).
constexpr std::size_t kOccScanLimit = 1000;

// Work per inprocessing round: failed-literal probes, and learnt clauses
// vivified (clauses longer than kVivifySizeLimit are skipped).
constexpr std::size_t kProbesPerRound = 128;
constexpr std::size_t kVivifyPerRound = 96;
constexpr std::uint32_t kVivifySizeLimit = 48;
}  // namespace

// --------------------------------------------------------------------------
// Round plumbing
// --------------------------------------------------------------------------

void simplifier::clear_level0_reasons() {
  // Level-0 assignments are permanent facts; their reason clauses may be
  // removed or rewritten during the round, so detach them from the trail
  // (locked() must not pin them and no dangling refs may survive).
  for (const lit p : s_.trail_) {
    s_.reason_[static_cast<std::size_t>(p.variable())] = solver::cr_undef;
  }
}

bool simplifier::settle() {
  JANUS_CHECK(s_.decision_level() == 0);
  if (s_.propagate() != solver::cr_undef) {
    s_.ok_ = false;
    return false;
  }
  clear_level0_reasons();
  cleanup_list(s_.clauses_);
  cleanup_list(s_.learnts_);
  return s_.ok_;
}

void simplifier::cleanup_list(std::vector<solver::clause_ref>& list) {
  std::size_t j = 0;
  for (const solver::clause_ref c : list) {
    if (s_.clause_deleted(c)) {
      continue;
    }
    lit* lits = s_.clause_lits(c);
    const std::uint32_t size = s_.clause_size(c);
    bool satisfied = false;
    for (std::uint32_t k = 0; k < size && !satisfied; ++k) {
      satisfied = is_true(s_.value(lits[k]));
    }
    if (satisfied) {
      s_.remove_clause(c);
      continue;
    }
    // Strip false literals in place. After propagation to fixpoint an
    // unsatisfied clause has both watched positions unassigned (a false
    // watch would have moved or made the clause unit), so the first two
    // literals survive and the watch lists stay valid.
    std::uint32_t w = 0;
    for (std::uint32_t k = 0; k < size; ++k) {
      if (!is_false(s_.value(lits[k]))) {
        lits[w++] = lits[k];
      }
    }
    JANUS_CHECK(w >= 2);
    if (w != size) {
      s_.arena_wasted_ += size - w;
      s_.arena_[c] = (w << 3) | (s_.arena_[c] & 7u);
    }
    list[j++] = c;
  }
  list.resize(j);
}

void simplifier::build_occurrence() {
  occ_.reset(s_.num_vars());
  items_.clear();
  items_.reserve(s_.clauses_.size());
  for (const solver::clause_ref c : s_.clauses_) {
    const auto idx = static_cast<std::uint32_t>(items_.size());
    const std::span<const lit> lits = s_.clause_span(c);
    items_.push_back({c, clause_signature(lits)});
    for (const lit l : lits) {
      occ_.add(l, idx);
    }
  }
}

void simplifier::finish() {
  const auto purge = [this](std::vector<solver::clause_ref>& list) {
    std::size_t j = 0;
    for (const solver::clause_ref c : list) {
      if (!s_.clause_deleted(c)) {
        list[j++] = c;
      }
    }
    list.resize(j);
  };
  purge(s_.clauses_);
  purge(s_.learnts_);
  s_.garbage_collect_if_needed();
}

// --------------------------------------------------------------------------
// Subsumption and self-subsuming resolution
// --------------------------------------------------------------------------

void simplifier::push_work(std::uint32_t idx) {
  if (idx >= in_work_.size()) {
    in_work_.resize(static_cast<std::size_t>(idx) + 1, 0);
  }
  if (in_work_[idx] != 0) {
    return;
  }
  in_work_[idx] = 1;
  work_.push_back(idx);
}

void simplifier::drain_subsumption() {
  while (work_head_ < work_.size()) {
    if (!s_.ok_ || s_.stopped_externally()) {
      return;
    }
    const std::uint32_t idx = work_[work_head_++];
    in_work_[idx] = 0;
    backward_subsume(idx);
  }
}

void simplifier::backward_subsume(std::uint32_t idx) {
  const solver::clause_ref cref = items_[idx].cref;
  if (s_.clause_deleted(cref)) {
    return;
  }
  const std::span<const lit> base = s_.clause_span(cref);
  // Pivot on the literal with the shortest occurrence list: every superset
  // of `base` must show up there.
  lit best = base[0];
  for (const lit l : base) {
    if (occ_[l].size() < occ_[best].size()) {
      best = l;
    }
  }
  if (occ_[best].size() > kOccScanLimit) {
    return;
  }
  next_stamp();
  for (const lit l : base) {
    stamp(l);
  }
  const std::size_t base_size = base.size();
  const std::uint64_t sig = items_[idx].sig;
  const auto& cands = occ_[best];
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const std::uint32_t cand = cands[i];
    if (cand == idx || s_.clause_deleted(items_[cand].cref)) {
      continue;
    }
    if ((sig & ~items_[cand].sig) != 0) {
      continue;  // base mentions a variable the candidate cannot contain
    }
    const std::span<const lit> other = s_.clause_span(items_[cand].cref);
    if (other.size() < base_size) {
      continue;
    }
    // base subsumes other, or self-subsumes with exactly one flipped literal.
    std::size_t hits = 0;
    lit flip = lit_undef;
    bool fail = false;
    for (const lit x : other) {
      if (stamped(x)) {
        ++hits;
      } else if (stamped(~x)) {
        if (!flip.is_undef()) {
          fail = true;
          break;
        }
        flip = x;
        ++hits;
      }
    }
    if (fail || hits < base_size) {
      continue;
    }
    if (flip.is_undef()) {
      s_.remove_clause(items_[cand].cref);
      ++s_.stats_.subsumed;
    } else {
      strengthen_item(cand, flip);
      if (!s_.ok_) {
        return;
      }
    }
  }
}

void simplifier::strengthen_item(std::uint32_t idx, lit p) {
  item& it = items_[idx];
  const solver::clause_ref c = it.cref;
  const std::uint32_t size = s_.clause_size(c);
  ++s_.stats_.strengthened;
  s_.detach_clause(c);
  if (size == 2) {
    // Shrinks to a unit: promote it to a top-level fact, drop the clause.
    const lit* lits = s_.clause_lits(c);
    const lit u = lits[0] == p ? lits[1] : lits[0];
    s_.arena_[c] |= 1u;  // mark deleted (already detached above)
    s_.arena_wasted_ += 1 + (s_.clause_learnt(c) ? 2 : 0) + size;
    ++s_.stats_.removed_clauses;
    if (is_false(s_.value(u))) {
      s_.ok_ = false;
      return;
    }
    if (is_undef(s_.value(u))) {
      s_.unchecked_enqueue(u, solver::cr_undef);
      if (s_.propagate() != solver::cr_undef) {
        s_.ok_ = false;
        return;
      }
      clear_level0_reasons();
    }
    return;
  }
  lit* lits = s_.clause_lits(c);
  std::uint32_t w = 0;
  for (std::uint32_t k = 0; k < size; ++k) {
    if (lits[k] != p) {
      lits[w++] = lits[k];
    }
  }
  JANUS_CHECK(w == size - 1);
  s_.arena_[c] = (w << 3) | (s_.arena_[c] & 7u);
  s_.arena_wasted_ += 1;
  s_.attach_clause(c);
  it.sig = clause_signature(s_.clause_span(c));
  push_work(idx);  // a strengthened clause can subsume further clauses
}

// --------------------------------------------------------------------------
// Failed-literal probing and clause vivification
// --------------------------------------------------------------------------

void simplifier::probe_failed_literals() {
  const auto nn = static_cast<std::size_t>(s_.num_vars()) * 2;
  std::vector<std::uint8_t> has_out(nn, 0);
  std::vector<std::uint8_t> has_in(nn, 0);
  const auto mark_edges = [&](const std::vector<solver::clause_ref>& list) {
    for (const solver::clause_ref c : list) {
      if (s_.clause_deleted(c) || s_.clause_size(c) != 2) {
        continue;
      }
      const lit* cl = s_.clause_lits(c);
      has_out[static_cast<std::size_t>((~cl[0]).code())] = 1;
      has_in[static_cast<std::size_t>(cl[1].code())] = 1;
      has_out[static_cast<std::size_t>((~cl[1]).code())] = 1;
      has_in[static_cast<std::size_t>(cl[0].code())] = 1;
    }
  };
  mark_edges(s_.clauses_);
  mark_edges(s_.learnts_);
  // Roots of the binary implication graph imply whole subtrees, so probing
  // them first maximizes what one propagation can refute. Fall back to any
  // literal with successors when no true root exists (cycle remnants).
  std::vector<lit> candidates;
  for (std::size_t code = 0; code < nn; ++code) {
    const lit l = lit::from_code(static_cast<std::int32_t>(code));
    if (has_out[code] != 0 && has_in[code] == 0 && is_undef(s_.value(l))) {
      candidates.push_back(l);
    }
  }
  if (candidates.empty()) {
    for (std::size_t code = 0; code < nn; ++code) {
      const lit l = lit::from_code(static_cast<std::int32_t>(code));
      if (has_out[code] != 0 && is_undef(s_.value(l))) {
        candidates.push_back(l);
      }
    }
  }
  if (candidates.empty()) {
    return;
  }
  // The persistent ticket rotates the starting point so successive rounds
  // cover different parts of the graph instead of re-probing the same head.
  const std::size_t count = std::min(candidates.size(), kProbesPerRound);
  for (std::size_t k = 0; k < count; ++k) {
    if (!s_.ok_ || s_.stopped_externally()) {
      break;
    }
    const lit p = candidates[(s_.probe_ticket_ + k) % candidates.size()];
    if (!is_undef(s_.value(p))) {
      continue;
    }
    s_.new_decision_level();
    s_.unchecked_enqueue(p, solver::cr_undef);
    const bool failed = s_.propagate() != solver::cr_undef;
    s_.cancel_until(0);
    if (failed) {
      ++s_.stats_.probed_failed_lits;
      s_.unchecked_enqueue(~p, solver::cr_undef);
      if (s_.propagate() != solver::cr_undef) {
        s_.ok_ = false;
        return;
      }
      clear_level0_reasons();
    }
  }
  s_.probe_ticket_ += count;
}

void simplifier::vivify_learnts() {
  std::vector<solver::clause_ref> cands;
  for (const solver::clause_ref c : s_.learnts_) {
    if (s_.clause_deleted(c) || s_.locked(c)) {
      continue;
    }
    const std::uint32_t size = s_.clause_size(c);
    if (size < 3 || size > kVivifySizeLimit || s_.clause_lbd(c) < 3) {
      continue;
    }
    cands.push_back(c);
  }
  // Target the worst (highest-LBD) clauses: they pay the least per watch
  // step, so shrinking or strengthening them moves the needle most.
  std::sort(cands.begin(), cands.end(),
            [this](solver::clause_ref a, solver::clause_ref b) {
              return s_.clause_lbd(a) > s_.clause_lbd(b);
            });
  const std::size_t count = std::min(cands.size(), kVivifyPerRound);
  std::vector<lit> lits;
  std::vector<lit> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (!s_.ok_ || s_.stopped_externally()) {
      return;
    }
    const solver::clause_ref c = cands[i];
    if (s_.clause_deleted(c) || s_.locked(c)) {
      continue;
    }
    const std::uint32_t old_lbd = s_.clause_lbd(c);
    const float old_act = s_.clause_activity(c);
    lits.assign(s_.clause_span(c).begin(), s_.clause_span(c).end());
    // The clause must not propagate against itself while its own negated
    // literals are assumed, so detach it first.
    s_.detach_clause(c);
    out.clear();
    s_.new_decision_level();
    for (const lit l : lits) {
      const lbool lv = s_.value(l);
      if (is_true(lv)) {
        out.push_back(l);  // assumed prefix already implies l: stop here
        break;
      }
      if (is_false(lv)) {
        continue;  // implied-false literal is redundant: drop it
      }
      out.push_back(l);
      s_.unchecked_enqueue(~l, solver::cr_undef);
      if (s_.propagate() != solver::cr_undef) {
        break;  // the prefix alone is contradictory with the formula
      }
    }
    s_.cancel_until(0);
    if (out.size() >= lits.size()) {
      s_.attach_clause(c);
      continue;
    }
    ++s_.stats_.vivified;
    s_.arena_[c] |= 1u;  // replaced: mark deleted (already detached)
    s_.arena_wasted_ += 1 + 2 + lits.size();
    if (out.empty()) {
      s_.ok_ = false;
      return;
    }
    if (out.size() == 1) {
      const lit u = out[0];
      ++s_.stats_.removed_clauses;
      if (is_false(s_.value(u))) {
        s_.ok_ = false;
        return;
      }
      if (is_undef(s_.value(u))) {
        s_.unchecked_enqueue(u, solver::cr_undef);
        if (s_.propagate() != solver::cr_undef) {
          s_.ok_ = false;
          return;
        }
        clear_level0_reasons();
      }
      continue;
    }
    const solver::clause_ref fresh = s_.alloc_clause(out, /*learnt=*/true);
    s_.set_clause_lbd(
        fresh, std::min(old_lbd, static_cast<std::uint32_t>(out.size()) - 1));
    s_.clause_activity(fresh) = old_act;
    s_.attach_clause(fresh);
    s_.learnts_.push_back(fresh);
  }
}

// --------------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------------

void simplifier::preprocess() {
  JANUS_CHECK(s_.decision_level() == 0);
  lit_stamp_.assign(static_cast<std::size_t>(s_.num_vars()) * 2, 0);
  if (!settle()) {
    return;
  }
  build_occurrence();
  for (std::uint32_t i = 0; i < items_.size(); ++i) {
    push_work(i);
  }
  drain_subsumption();
  if (!s_.ok_) {
    return;
  }
  s_.subsumption_queue_.clear();  // everything above was just processed
  finish();
}

void simplifier::inprocess() {
  JANUS_CHECK(s_.decision_level() == 0);
  lit_stamp_.assign(static_cast<std::size_t>(s_.num_vars()) * 2, 0);
  if (!settle()) {
    return;
  }
  build_occurrence();
  if (!s_.subsumption_queue_.empty()) {
    std::vector<solver::clause_ref> queued = std::move(s_.subsumption_queue_);
    s_.subsumption_queue_.clear();
    std::sort(queued.begin(), queued.end());
    for (std::uint32_t i = 0; i < items_.size(); ++i) {
      if (std::binary_search(queued.begin(), queued.end(), items_[i].cref)) {
        push_work(i);
      }
    }
    drain_subsumption();
    if (!s_.ok_) {
      return;
    }
  }
  // Probing and vivification run speculative propagations whose cancel paths
  // would overwrite the search's saved phases with probe polarities; snapshot
  // and restore them so inprocessing leaves phase saving untouched.
  const std::vector<std::uint8_t> phases = s_.saved_phase_;
  probe_failed_literals();
  if (s_.ok_) {
    vivify_learnts();
  }
  s_.saved_phase_ = phases;
  if (!s_.ok_) {
    return;
  }
  finish();
}

}  // namespace janus::sat
