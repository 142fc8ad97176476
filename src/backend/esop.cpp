#include "backend/esop.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace janus::backend {

// ---------------------------------------------------------------------------
// esop_form

esop_form::esop_form(int num_vars, std::vector<bf::cube> terms)
    : num_vars_(num_vars), terms_(std::move(terms)) {
  JANUS_CHECK_MSG(num_vars >= 0 && num_vars <= bf::cube::max_vars,
                  "esop_form: unsupported variable count");
}

bool esop_form::eval(std::uint64_t minterm) const {
  bool value = false;
  for (const bf::cube& term : terms_) {
    value ^= term.eval(minterm);
  }
  return value;
}

bf::truth_table esop_form::to_truth_table() const {
  bf::truth_table result(num_vars_);
  for (const bf::cube& term : terms_) {
    result ^= term.to_truth_table(num_vars_);
  }
  return result;
}

std::string esop_form::str() const {
  if (terms_.empty()) {
    return "0";
  }
  std::string out;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) {
      out += " ^ ";
    }
    out += terms_[i].str(num_vars_);
  }
  return out;
}

esop_form pprm(const bf::truth_table& f) {
  const std::uint64_t size = f.num_minterms();
  std::vector<std::uint8_t> coeff(size);
  for (std::uint64_t m = 0; m < size; ++m) {
    coeff[m] = f.get(m) ? 1 : 0;
  }
  // Möbius butterfly: after processing variable i, coeff[m] is the ANF
  // coefficient of the monomial named by m's set bits restricted to the
  // first i+1 variables.
  for (int i = 0; i < f.num_vars(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (std::uint64_t m = 0; m < size; ++m) {
      if ((m & bit) != 0) {
        coeff[m] ^= coeff[m ^ bit];
      }
    }
  }
  std::vector<bf::cube> terms;
  for (std::uint64_t m = 0; m < size; ++m) {
    if (coeff[m] == 0) {
      continue;
    }
    bf::cube term;  // m == 0 stays the tautology cube (constant 1)
    for (int i = 0; i < f.num_vars(); ++i) {
      if ((m >> i) & 1) {
        term.add_literal(i, /*negated=*/false);
      }
    }
    terms.push_back(term);
  }
  return esop_form(f.num_vars(), std::move(terms));
}

bool esop_realization::verify(const bf::truth_table& f) const {
  return form_.num_vars() == f.num_vars() && form_.to_truth_table() == f;
}

std::string esop_realization::describe() const {
  return std::to_string(form_.num_terms()) + " terms: " + form_.str();
}

// ---------------------------------------------------------------------------
// The SAT ladder

namespace {

/// One encoded "ESOP with ≤ max_terms terms" instance, probed incrementally
/// along the dichotomic ladder through per-term activation assumptions.
class esop_session {
 public:
  esop_session(const bf::truth_table& f, int max_terms,
               const sat::solver_options& solver_options)
      : f_(f), num_vars_(f.num_vars()), max_terms_(max_terms),
        solver_(solver_options) {
    encode();
  }

  /// Is there an ESOP of f with at most `k` live terms? Returns the raw
  /// solver verdict; on sat, extract() reads the model.
  [[nodiscard]] sat::solve_result probe(int k, deadline dl,
                                        const std::atomic<bool>* stop) {
    JANUS_CHECK_MSG(k >= 0 && k <= max_terms_, "esop probe out of range");
    std::vector<sat::lit> assumptions;
    assumptions.reserve(static_cast<std::size_t>(max_terms_));
    for (int j = 0; j < max_terms_; ++j) {
      assumptions.push_back(sat::lit::make(active_[j], /*negated=*/j >= k));
    }
    solver_.set_deadline(dl);
    solver_.set_stop_flag(stop);
    return solver_.solve(assumptions);
  }

  /// The model's live terms (constant-0 slots dropped), after probe == sat.
  [[nodiscard]] esop_form extract(int k) const {
    std::vector<bf::cube> terms;
    for (int j = 0; j < k; ++j) {
      bf::cube term;
      bool contradictory = false;
      for (int i = 0; i < num_vars_; ++i) {
        const bool pos = solver_.model_bool(pos_[index(j, i)]);
        const bool neg = solver_.model_bool(neg_[index(j, i)]);
        if (pos && neg) {
          contradictory = true;  // x·x' — the encoded "unused slot"
          break;
        }
        if (pos || neg) {
          term.add_literal(i, /*negated=*/neg);
        }
      }
      if (!contradictory) {
        terms.push_back(term);
      }
    }
    return esop_form(num_vars_, std::move(terms));
  }

  [[nodiscard]] const sat::solver_stats& stats() const {
    return solver_.stats();
  }

 private:
  [[nodiscard]] std::size_t index(int term, int variable) const {
    return static_cast<std::size_t>(term) * static_cast<std::size_t>(num_vars_) +
           static_cast<std::size_t>(variable);
  }

  void encode() {
    const std::uint64_t minterms = f_.num_minterms();
    pos_.resize(index(max_terms_, 0));
    neg_.resize(pos_.size());
    active_.resize(static_cast<std::size_t>(max_terms_));
    for (int j = 0; j < max_terms_; ++j) {
      active_[j] = solver_.new_var();
      for (int i = 0; i < num_vars_; ++i) {
        pos_[index(j, i)] = solver_.new_var();
        neg_[index(j, i)] = solver_.new_var();
      }
    }
    // t[j][m] ⇔ active[j] ∧ (term j's product covers minterm m). The
    // product covers m iff for every variable the polarity that m violates
    // is absent: bit i set → q[j][i] must be 0, bit i clear → p[j][i] = 0.
    std::vector<std::vector<sat::var>> covers(
        static_cast<std::size_t>(max_terms_));
    std::vector<sat::lit> clause;
    for (int j = 0; j < max_terms_; ++j) {
      covers[j].resize(minterms);
      const sat::lit act = sat::lit::make(active_[j]);
      for (std::uint64_t m = 0; m < minterms; ++m) {
        const sat::var t = solver_.new_var();
        covers[j][m] = t;
        const sat::lit tl = sat::lit::make(t);
        clause.assign({~tl, act});
        solver_.add_clause(clause);
        for (int i = 0; i < num_vars_; ++i) {
          const sat::var blocker = ((m >> i) & 1) ? neg_[index(j, i)]
                                                  : pos_[index(j, i)];
          clause.assign({~tl, sat::lit::make(blocker, true)});
          solver_.add_clause(clause);
        }
        clause.assign({tl, ~act});
        for (int i = 0; i < num_vars_; ++i) {
          const sat::var blocker = ((m >> i) & 1) ? neg_[index(j, i)]
                                                  : pos_[index(j, i)];
          clause.push_back(sat::lit::make(blocker));
        }
        solver_.add_clause(clause);
      }
    }
    // Per minterm, a Tseitin XOR chain over the t column pinned to f(m).
    for (std::uint64_t m = 0; m < minterms; ++m) {
      sat::lit acc = sat::lit::make(covers[0][m]);
      for (int j = 1; j < max_terms_; ++j) {
        const sat::lit term = sat::lit::make(covers[j][m]);
        const sat::lit next = sat::lit::make(solver_.new_var());
        // next ⇔ acc ⊕ term
        solver_.add_clause({~next, acc, term});
        solver_.add_clause({~next, ~acc, ~term});
        solver_.add_clause({next, ~acc, term});
        solver_.add_clause({next, acc, ~term});
        acc = next;
      }
      solver_.add_clause({f_.get(m) ? acc : ~acc});
    }
  }

  const bf::truth_table& f_;
  int num_vars_;
  int max_terms_;
  sat::solver solver_;
  std::vector<sat::var> pos_;     // p[j][i]: positive literal present
  std::vector<sat::var> neg_;     // q[j][i]: complemented literal present
  std::vector<sat::var> active_;  // per-term activation (assumed per probe)
};

class esop_backend final : public synth_backend {
 public:
  [[nodiscard]] const char* name() const override { return "esop"; }

  [[nodiscard]] backend_capabilities capabilities() const override {
    return {.max_vars = 8, .exact = true, .cost_unit = "terms"};
  }

  [[nodiscard]] backend_result run(const backend_request& request) override {
    stopwatch timer;
    backend_result result;
    result.backend = name();
    if (auto rejected =
            reject_unsupported(name(), capabilities(), request.target)) {
      return *std::move(rejected);
    }
    const bf::truth_table& f = request.target.function();

    // The constructive upper bound doubles as the verified best-effort
    // answer under an expired budget.
    esop_form best = pprm(f);
    JANUS_CHECK_MSG(best.to_truth_table() == f,
                    "esop: PPRM construction failed verification");
    int ub = best.num_terms();
    int lb = f.is_zero() ? 0 : 1;
    result.lower_bound = lb;

    if (lb < ub) {
      // One incremental session for the whole ladder: the largest candidate
      // count is ub - 1 (ub itself is already realized by the PPRM).
      esop_session session(f, ub - 1, request.base.lm.solver);
      while (lb < ub) {
        if (request.base.lm.cancel.cancelled()) {
          result.status = backend_status::cancelled;
          break;
        }
        if (request.dl.expired()) {
          result.status = backend_status::timeout;
          break;
        }
        const int k = lb + (ub - lb) / 2;
        const sat::solve_result verdict =
            session.probe(k, request.dl, request.base.lm.cancel.flag());
        if (verdict == sat::solve_result::sat) {
          esop_form found = session.extract(k);
          JANUS_CHECK_MSG(found.num_terms() <= k,
                          "esop: extracted more terms than probed");
          JANUS_CHECK_MSG(found.to_truth_table() == f,
                          "esop: extracted form failed verification");
          ub = std::max(lb, found.num_terms());
          best = std::move(found);
        } else if (verdict == sat::solve_result::unsat) {
          lb = k + 1;
          result.lower_bound = lb;
        } else {
          result.status = request.base.lm.cancel.cancelled()
                              ? backend_status::cancelled
                              : backend_status::timeout;
          break;
        }
      }
      result.sat = session.stats();
    }

    result.realized = std::make_shared<esop_realization>(std::move(best));
    if (lb >= ub) {
      result.status = backend_status::solved;
      result.optimal = true;
      result.lower_bound = ub;
    }
    result.detail = lb >= ub ? "converged"
                             : "ladder interrupted in [" + std::to_string(lb) +
                                   ", " + std::to_string(ub) + "]";
    result.seconds = timer.seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<synth_backend> make_esop_backend() {
  return std::make_unique<esop_backend>();
}

}  // namespace janus::backend
