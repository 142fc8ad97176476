#include "backend/chain.hpp"

#include <algorithm>
#include <utility>

#include "sat/solver.hpp"
#include "util/check.hpp"

namespace janus::backend {

// ---------------------------------------------------------------------------
// boolean_chain

namespace {

const char* op_name(std::uint8_t op) {
  switch (op) {
    case 0b0001: return "NOR";
    case 0b0010: return "GT";    // a & ~b
    case 0b0100: return "LT";    // ~a & b
    case 0b0110: return "XOR";
    case 0b0111: return "NAND";
    case 0b1000: return "AND";
    case 0b1110: return "OR";
    case 0b1001: return "XNOR";
    default: return nullptr;
  }
}

}  // namespace

boolean_chain::boolean_chain(int num_vars, std::vector<chain_step> steps,
                             int output, bool output_inverted)
    : num_vars_(num_vars), steps_(std::move(steps)), output_(output),
      output_inverted_(output_inverted) {
  const int num_nodes = num_vars_ + static_cast<int>(steps_.size());
  JANUS_CHECK_MSG(output_ >= -1 && output_ < num_nodes,
                  "boolean_chain: output node out of range");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const int limit = num_vars_ + static_cast<int>(i);
    JANUS_CHECK_MSG(steps_[i].fanin0 >= 0 && steps_[i].fanin0 < limit &&
                        steps_[i].fanin1 >= 0 && steps_[i].fanin1 < limit,
                    "boolean_chain: fanin references a later node");
  }
}

bf::truth_table boolean_chain::simulate() const {
  std::vector<bf::truth_table> nodes;
  nodes.reserve(static_cast<std::size_t>(num_vars_) + steps_.size());
  for (int i = 0; i < num_vars_; ++i) {
    nodes.push_back(bf::truth_table::variable(num_vars_, i));
  }
  for (const chain_step& step : steps_) {
    const bf::truth_table& a = nodes[static_cast<std::size_t>(step.fanin0)];
    const bf::truth_table& b = nodes[static_cast<std::size_t>(step.fanin1)];
    bf::truth_table value(num_vars_);
    if (step.op & 0b0001) value |= ~a & ~b;
    if (step.op & 0b0010) value |= a & ~b;
    if (step.op & 0b0100) value |= ~a & b;
    if (step.op & 0b1000) value |= a & b;
    nodes.push_back(std::move(value));
  }
  bf::truth_table out = output_ < 0
                            ? bf::truth_table::zeros(num_vars_)
                            : nodes[static_cast<std::size_t>(output_)];
  return output_inverted_ ? ~out : out;
}

std::string boolean_chain::str() const {
  std::string out;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const chain_step& step = steps_[i];
    // Appends, not `"x" + std::to_string(...)`: the operator+ form trips
    // GCC 12's bogus -Wrestrict at -O3 (GCC PR105329) under -Werror.
    out += 'x';
    out += std::to_string(num_vars_ + static_cast<int>(i));
    out += " = ";
    if (const char* named = op_name(step.op)) {
      out += named;
    } else {
      out += "op";
      out += std::to_string(step.op);
    }
    out += "(x";
    out += std::to_string(step.fanin0);
    out += ", x";
    out += std::to_string(step.fanin1);
    out += "); ";
  }
  out += "out = ";
  if (output_inverted_) {
    out += "~";
  }
  if (output_ < 0) {
    out += "0";
  } else {
    out += 'x';
    out += std::to_string(output_);
  }
  return out;
}

bool chain_realization::verify(const bf::truth_table& f) const {
  return chain_.num_vars() == f.num_vars() && chain_.simulate() == f;
}

std::string chain_realization::describe() const {
  return std::to_string(chain_.num_steps()) + " steps: " + chain_.str();
}

// ---------------------------------------------------------------------------
// The SAT encoding (one instance per candidate step count)

namespace {

/// Encode "a normal chain of exactly r steps computes g" and extract the
/// witness. g must be normal (g(0…0) = 0) and non-trivial.
class chain_instance {
 public:
  chain_instance(const bf::truth_table& g, int r,
                 const sat::solver_options& solver_options)
      : g_(g), num_vars_(g.num_vars()), num_steps_(r),
        solver_(solver_options) {
    encode();
  }

  [[nodiscard]] sat::solve_result solve(deadline dl,
                                        const std::atomic<bool>* stop) {
    solver_.set_deadline(dl);
    solver_.set_stop_flag(stop);
    return solver_.solve();
  }

  [[nodiscard]] std::vector<chain_step> extract() const {
    std::vector<chain_step> steps;
    for (int i = 0; i < num_steps_; ++i) {
      const auto& pairs = pairs_[static_cast<std::size_t>(i)];
      chain_step step;
      bool found = false;
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        if (solver_.model_bool(sel_[i][p])) {
          JANUS_CHECK_MSG(!found, "chain: selection not one-hot");
          step.fanin0 = pairs[p].first;
          step.fanin1 = pairs[p].second;
          found = true;
        }
      }
      JANUS_CHECK_MSG(found, "chain: step selected no fanin pair");
      for (int c = 1; c < 4; ++c) {
        if (solver_.model_bool(op_[i][c - 1])) {
          step.op |= static_cast<std::uint8_t>(1u << c);
        }
      }
      steps.push_back(step);
    }
    return steps;
  }

  [[nodiscard]] const sat::solver_stats& stats() const {
    return solver_.stats();
  }

 private:
  /// The literal asserting "node j differs from `value` on minterm t", or
  /// nothing when node j is an input whose value at t is a known constant.
  struct node_test {
    bool known = false;       ///< input node: value is a compile-time constant
    bool constant = false;    ///< its value (when known)
    sat::lit differs;         ///< ¬(node = value) (when not known)
  };
  [[nodiscard]] node_test test_node(int node, std::uint64_t t,
                                    bool value) const {
    node_test result;
    if (node < num_vars_) {
      result.known = true;
      result.constant = ((t >> node) & 1) != 0;
      return result;
    }
    result.differs =
        sat::lit::make(sim_[node - num_vars_][t - 1], /*negated=*/value);
    return result;
  }

  void encode() {
    const std::uint64_t minterms = g_.num_minterms();
    sel_.resize(static_cast<std::size_t>(num_steps_));
    op_.resize(static_cast<std::size_t>(num_steps_));
    sim_.resize(static_cast<std::size_t>(num_steps_));
    pairs_.resize(static_cast<std::size_t>(num_steps_));
    for (int i = 0; i < num_steps_; ++i) {
      for (int j = 0; j < num_vars_ + i; ++j) {
        for (int k = j + 1; k < num_vars_ + i; ++k) {
          pairs_[i].emplace_back(j, k);
        }
      }
      for (std::size_t p = 0; p < pairs_[i].size(); ++p) {
        sel_[i].push_back(solver_.new_var());
      }
      for (int c = 0; c < 3; ++c) {
        op_[i].push_back(solver_.new_var());
      }
      for (std::uint64_t t = 1; t < minterms; ++t) {
        sim_[i].push_back(solver_.new_var());
      }
    }
    // Exactly one fanin pair per step (at-least-one + pairwise at-most-one).
    std::vector<sat::lit> clause;
    for (int i = 0; i < num_steps_; ++i) {
      clause.clear();
      for (const sat::var s : sel_[i]) {
        clause.push_back(sat::lit::make(s));
      }
      solver_.add_clause(clause);
      for (std::size_t p = 0; p < sel_[i].size(); ++p) {
        for (std::size_t q = p + 1; q < sel_[i].size(); ++q) {
          solver_.add_clause({sat::lit::make(sel_[i][p], true),
                              sat::lit::make(sel_[i][q], true)});
        }
      }
    }
    // Selected fanins tie each simulation variable to the operator output:
    // sel(i,j,k) ∧ (x_j = a) ∧ (x_k = b)  →  (sim_i(t) ↔ op_i(a,b)),
    // with op_i(0,0) fixed to 0 by normality.
    for (int i = 0; i < num_steps_; ++i) {
      for (std::size_t p = 0; p < pairs_[i].size(); ++p) {
        const auto [j, k] = pairs_[i][p];
        const sat::lit not_sel = sat::lit::make(sel_[i][p], true);
        for (std::uint64_t t = 1; t < minterms; ++t) {
          const sat::lit sim = sat::lit::make(sim_[i][t - 1]);
          for (int a = 0; a < 2; ++a) {
            const node_test ja = test_node(j, t, a != 0);
            if (ja.known && ja.constant != (a != 0)) {
              continue;
            }
            for (int b = 0; b < 2; ++b) {
              const node_test kb = test_node(k, t, b != 0);
              if (kb.known && kb.constant != (b != 0)) {
                continue;
              }
              clause.assign({not_sel});
              if (!ja.known) {
                clause.push_back(ja.differs);
              }
              if (!kb.known) {
                clause.push_back(kb.differs);
              }
              const int pattern = a + 2 * b;
              if (pattern == 0) {
                clause.push_back(~sim);  // normality: output 0 on (0,0)
                solver_.add_clause(clause);
                continue;
              }
              const sat::lit op = sat::lit::make(op_[i][pattern - 1]);
              clause.push_back(~sim);
              clause.push_back(op);
              solver_.add_clause(clause);
              clause.pop_back();
              clause.pop_back();
              clause.push_back(sim);
              clause.push_back(~op);
              solver_.add_clause(clause);
            }
          }
        }
      }
    }
    // The last step is the output: pin its column to g.
    for (std::uint64_t t = 1; t < minterms; ++t) {
      solver_.add_clause(
          {sat::lit::make(sim_[num_steps_ - 1][t - 1], !g_.get(t))});
    }
  }

  const bf::truth_table& g_;
  int num_vars_;
  int num_steps_;
  sat::solver solver_;
  std::vector<std::vector<std::pair<int, int>>> pairs_;  // per step: (j, k)
  std::vector<std::vector<sat::var>> sel_;  // per step, per pair
  std::vector<std::vector<sat::var>> op_;   // per step: patterns 01, 10, 11
  std::vector<std::vector<sat::var>> sim_;  // per step, per minterm 1…M−1
};

class chain_backend final : public synth_backend {
 public:
  [[nodiscard]] const char* name() const override { return "chain"; }

  [[nodiscard]] backend_capabilities capabilities() const override {
    return {.max_vars = 6, .exact = true, .cost_unit = "steps"};
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
    const int n = f.num_vars();

    // Normalize: a normal chain outputs 0 on the all-zero minterm.
    const bool inverted = f.get(0);
    const bf::truth_table g = inverted ? ~f : f;

    // Trivial targets need no steps (and the encoding below assumes a
    // non-trivial g, whose last step cannot be an input).
    if (auto trivial = trivial_chain(g, n, inverted)) {
      result.realized =
          std::make_shared<chain_realization>(*std::move(trivial));
      JANUS_CHECK_MSG(result.realized->verify(f),
                      "chain: trivial chain failed verification");
      result.status = backend_status::solved;
      result.optimal = true;
      result.detail = "trivial";
      result.seconds = timer.seconds();
      return result;
    }

    // A chain of r two-input steps references at most r + 1 distinct
    // inputs, so r ≥ |support(g)| − 1.
    const int support = static_cast<int>(g.support().size());
    int r = std::max(1, support - 1);
    result.lower_bound = r;
    const int step_cap = static_cast<int>(g.num_minterms());
    while (r <= step_cap) {
      if (request.base.lm.cancel.cancelled()) {
        result.status = backend_status::cancelled;
        break;
      }
      if (request.dl.expired()) {
        result.status = backend_status::timeout;
        break;
      }
      chain_instance instance(g, r, request.base.lm.solver);
      const sat::solve_result verdict =
          instance.solve(request.dl, request.base.lm.cancel.flag());
      result.sat += instance.stats();
      if (verdict == sat::solve_result::sat) {
        boolean_chain chain(n, instance.extract(), n + r - 1, inverted);
        auto realized = std::make_shared<chain_realization>(std::move(chain));
        JANUS_CHECK_MSG(realized->verify(f),
                        "chain: extracted chain failed re-simulation");
        result.realized = std::move(realized);
        result.status = backend_status::solved;
        result.optimal = true;
        result.lower_bound = r;
        result.detail = "converged";
        break;
      }
      if (verdict == sat::solve_result::unsat) {
        ++r;
        result.lower_bound = r;
        continue;
      }
      result.status = request.base.lm.cancel.cancelled()
                          ? backend_status::cancelled
                          : backend_status::timeout;
      break;
    }
    if (result.status != backend_status::solved && result.detail.empty()) {
      result.detail = "no chain within budget; next candidate r = " +
                      std::to_string(r);
    }
    result.seconds = timer.seconds();
    return result;
  }

 private:
  /// The 0-step chain for constants and (possibly inverted) projections.
  static std::optional<boolean_chain> trivial_chain(const bf::truth_table& g,
                                                    int n, bool inverted) {
    if (g.is_zero()) {
      return boolean_chain(n, {}, -1, inverted);
    }
    for (int i = 0; i < n; ++i) {
      if (g == bf::truth_table::variable(n, i)) {
        return boolean_chain(n, {}, i, inverted);
      }
    }
    return std::nullopt;
  }
};

}  // namespace

std::unique_ptr<synth_backend> make_chain_backend() {
  return std::make_unique<chain_backend>();
}

}  // namespace janus::backend
