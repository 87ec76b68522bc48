#include "verify/milp_encoder.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "lp/simplex.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {

lp::Problem relaxation_lp(const Box& box,
                          const std::vector<InputConstraint>& constraints) {
  lp::Problem p;
  for (const Interval& iv : box) p.add_variable(iv.lo, iv.hi);
  for (const InputConstraint& c : constraints) {
    p.add_constraint(c.terms, c.relation, c.rhs);  // input i is variable i
  }
  return p;
}

int append_relaxed_neuron(lp::Problem& lp, const nn::DenseLayer& layer,
                          std::size_t r, const std::vector<int>& prev,
                          const Interval& pre) {
  lp::LinearTerms z;
  for (std::size_t c = 0; c < layer.in_size(); ++c) {
    const double w = layer.weights()(r, c);
    if (w != 0.0) z.emplace_back(prev[c], w);
  }
  const double b = layer.biases()[r];
  // The row  y - slope * (w_r . prev)  (relation)  rhs.
  auto add_row = [&](int y, double slope, lp::Relation relation,
                     double rhs) {
    lp::LinearTerms row{{y, 1.0}};
    for (const auto& [var, coef] : z) row.emplace_back(var, -slope * coef);
    lp.add_constraint(std::move(row), relation, rhs);
  };
  const bool relu = layer.activation() != nn::Activation::kIdentity;
  if (relu && pre.hi <= 0.0) return lp.add_variable(0.0, 0.0);
  if (!relu || pre.lo >= 0.0) {
    const int y = lp.add_variable(pre.lo, pre.hi);
    add_row(y, 1.0, lp::Relation::kEq, b);
    return y;
  }
  const int y = lp.add_variable(0.0, pre.hi);
  add_row(y, 1.0, lp::Relation::kGe, b);
  const double slope = pre.hi / (pre.hi - pre.lo);
  add_row(y, slope, lp::Relation::kLe, slope * (b - pre.lo));
  return y;
}

std::vector<LayerBounds> lp_tightened_bounds(
    const nn::Network& net, const InputRegion& region,
    const std::vector<LayerBounds>* symbolic_seed, const CancelToken& stop,
    long* lp_iterations) {
  check_query(net, region);
  // Symbolic bounds seed the relaxation and cap the LP answers (the LP
  // can only tighten, never loosen, a sound bound). The tighter seed
  // also lets stable neurons skip their min/max LP pair below.
  const std::vector<LayerBounds> seed =
      symbolic_seed ? *symbolic_seed : symbolic_bounds(net, region.box);

  lp::Problem relaxation = relaxation_lp(region.box, region.constraints);
  std::vector<int> prev_vars(net.input_size());
  for (std::size_t i = 0; i < prev_vars.size(); ++i) {
    prev_vars[i] = static_cast<int>(i);
  }
  std::vector<LayerBounds> out;
  out.reserve(net.num_layers());
  std::vector<double> objective;
  long iterations = 0;

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    LayerBounds lb;
    lb.pre.resize(layer.out_size());
    lb.post.resize(layer.out_size());
    // Every LP of this layer runs over the relaxation of the layers before
    // it, so one simplex serves them all: phase 1 once, then each min and
    // max re-optimizes from the previous optimum. Built at the layer's
    // first LP pair, so a fired token or an all-stable layer builds none.
    std::optional<lp::Simplex> simplex;
    objective.assign(static_cast<std::size_t>(relaxation.num_variables()),
                     0.0);

    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      // Tighten pre-activation bounds by LP, seeded by the interval.
      Interval pre = seed[li].pre[r];
      // A ReLU neuron the symbolic seed already proves stable encodes
      // without a binary no matter how much tighter the LP bound gets —
      // skip both LPs (the big win of the symbolic seed: on typical
      // boxes most neurons are stable).
      const bool skip_lps = (layer.activation() == nn::Activation::kRelu &&
                             classify(pre) != NeuronStability::kUnstable) ||
                            stop.check_now();
      if (!skip_lps) {
        if (!simplex) simplex.emplace(relaxation);
        for (std::size_t c = 0; c < layer.in_size(); ++c) {
          const double w = layer.weights()(r, c);
          if (w != 0.0) objective[static_cast<std::size_t>(prev_vars[c])] = w;
        }
        const double b = layer.biases()[r];
        for (const bool maximize : {false, true}) {
          const lp::Solution s = simplex->optimize(objective, maximize);
          iterations += s.iterations;
          if (s.status != lp::SolveStatus::kOptimal) continue;
          if (maximize) {
            pre.hi = std::min(pre.hi, s.objective + b + 1e-9);
          } else {
            pre.lo = std::max(pre.lo, s.objective + b - 1e-9);
          }
        }
        for (const int v : prev_vars) objective[static_cast<std::size_t>(v)] = 0.0;
      }
      if (pre.lo > pre.hi) pre.lo = pre.hi;  // numerical guard
      lb.pre[r] = pre;
    }
    simplex.reset();

    // Extend the relaxation with this layer for the next one, in neuron
    // order. No neuron of a layer constrains another's LPs: each y has a
    // feasible value for every z within the neuron's bounds, so appending
    // before or after the layer's LPs gives the same optima.
    std::vector<int> layer_vars(layer.out_size(), -1);
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      const int y =
          append_relaxed_neuron(relaxation, layer, r, prev_vars, lb.pre[r]);
      lb.post[r] = Interval{relaxation.variable(y).lower,
                            relaxation.variable(y).upper};
      layer_vars[r] = y;
    }
    prev_vars = std::move(layer_vars);
    out.push_back(std::move(lb));
  }
  if (lp_iterations) *lp_iterations = iterations;
  return out;
}

linalg::Vector EncodedNetwork::extract_input(
    const std::vector<double>& values) const {
  linalg::Vector x(input_vars.size());
  for (std::size_t i = 0; i < input_vars.size(); ++i) {
    x[i] = values[static_cast<std::size_t>(input_vars[i])];
  }
  return x;
}

std::vector<double> EncodedNetwork::assignment_from_input(
    const nn::Network& net, const linalg::Vector& x) const {
  require(x.size() == input_vars.size(),
          "assignment_from_input: input width mismatch");
  std::vector<double> values(
      static_cast<std::size_t>(model.num_variables()), 0.0);
  for (std::size_t i = 0; i < input_vars.size(); ++i) {
    values[static_cast<std::size_t>(input_vars[i])] = x[i];
  }
  const nn::ForwardTrace trace = net.forward_trace(x);
  for (std::size_t li = 0; li < post_vars.size(); ++li) {
    for (std::size_t r = 0; r < post_vars[li].size(); ++r) {
      values[static_cast<std::size_t>(post_vars[li][r])] =
          trace.post_activations[li][r];
      const int d = phase_binaries[li][r];
      if (d >= 0) {
        values[static_cast<std::size_t>(d)] =
            trace.pre_activations[li][r] > 0.0 ? 1.0 : 0.0;
      }
    }
  }
  return values;
}

EncodedNetwork encode_network(const nn::Network& net,
                              const InputRegion& region,
                              const EncoderOptions& options,
                              const CancelToken& stop) {
  check_query(net, region);

  // Neuron bounds (big-M constants) per the configured tightening method.
  std::vector<LayerBounds> bounds;
  long tighten_iterations = 0;
  switch (options.tightening) {
    case BoundTightening::kInterval:
      bounds = propagate_bounds(net, region.box);
      break;
    case BoundTightening::kSymbolic:
      bounds = options.precomputed_symbolic
                   ? *options.precomputed_symbolic
                   : symbolic_bounds(net, region.box);
      break;
    case BoundTightening::kLpTighten:
      bounds = lp_tightened_bounds(net, region, options.precomputed_symbolic,
                                   stop, &tighten_iterations);
      break;
    case BoundTightening::kLooseBigM: {
      const double m = options.loose_big_m;
      bounds.reserve(net.num_layers());
      for (std::size_t li = 0; li < net.num_layers(); ++li) {
        LayerBounds lb;
        const std::size_t width = net.layer(li).out_size();
        lb.pre.assign(width, Interval{-m, m});
        for (std::size_t r = 0; r < width; ++r) {
          lb.post.push_back(
              net.layer(li).activation() == nn::Activation::kRelu
                  ? Interval{0.0, m}
                  : Interval{-m, m});
        }
        bounds.push_back(std::move(lb));
      }
      break;
    }
  }

  EncodedNetwork enc;
  enc.lp_iterations = tighten_iterations;
  milp::Model& model = enc.model;

  // Input variables constrained to the region.
  enc.input_vars.reserve(net.input_size());
  for (std::size_t i = 0; i < net.input_size(); ++i) {
    enc.input_vars.push_back(model.add_variable(
        region.box[i].lo, region.box[i].hi, milp::VarType::kContinuous));
  }
  for (const InputConstraint& c : region.constraints) {
    lp::LinearTerms terms;
    terms.reserve(c.terms.size());
    for (const auto& [idx, coef] : c.terms) {
      terms.emplace_back(enc.input_vars[static_cast<std::size_t>(idx)], coef);
    }
    model.add_constraint(std::move(terms), c.relation, c.rhs);
  }

  std::vector<int> prev_vars = enc.input_vars;
  enc.post_vars.resize(net.num_layers());
  enc.phase_binaries.resize(net.num_layers());

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    const LayerBounds& lb = bounds[li];
    auto& layer_post = enc.post_vars[li];
    auto& layer_bin = enc.phase_binaries[li];
    layer_post.assign(layer.out_size(), -1);
    layer_bin.assign(layer.out_size(), -1);

    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      const Interval pre = lb.pre[r];

      // Pre-activation as linear terms over the previous layer.
      auto pre_terms = [&](double y_coef, int y_var,
                           double d_coef = 0.0, int d_var = -1) {
        lp::LinearTerms terms;
        terms.reserve(layer.in_size() + 2);
        terms.emplace_back(y_var, y_coef);
        for (std::size_t c = 0; c < layer.in_size(); ++c) {
          const double w = layer.weights()(r, c);
          if (w != 0.0) terms.emplace_back(prev_vars[c], -w);
        }
        if (d_var >= 0) terms.emplace_back(d_var, d_coef);
        return terms;
      };

      if (layer.activation() == nn::Activation::kIdentity) {
        const int y =
            model.add_variable(pre.lo, pre.hi, milp::VarType::kContinuous);
        // y - w.y_prev = b
        model.add_constraint(pre_terms(1.0, y), lp::Relation::kEq,
                             layer.biases()[r]);
        layer_post[r] = y;
        continue;
      }

      // ReLU neuron.
      const NeuronStability stability = classify(pre);
      if (stability == NeuronStability::kStableInactive) {
        // Output pinned to zero; no rows needed.
        layer_post[r] =
            model.add_variable(0.0, 0.0, milp::VarType::kContinuous);
        ++enc.num_stable_inactive;
        continue;
      }
      if (stability == NeuronStability::kStableActive) {
        const int y = model.add_variable(std::max(0.0, pre.lo), pre.hi,
                                         milp::VarType::kContinuous);
        model.add_constraint(pre_terms(1.0, y), lp::Relation::kEq,
                             layer.biases()[r]);
        layer_post[r] = y;
        ++enc.num_stable_active;
        continue;
      }

      // Unstable: big-M disjunction with per-neuron constants.
      const double lo = pre.lo;
      const double hi = pre.hi;
      const int y = model.add_variable(0.0, std::max(0.0, hi),
                                       milp::VarType::kContinuous);
      const int d = model.add_variable(0.0, 1.0, milp::VarType::kBinary);
      const double b = layer.biases()[r];
      // y - w.y_prev >= b              (y >= z)
      model.add_constraint(pre_terms(1.0, y), lp::Relation::kGe, b);
      // y - w.y_prev - lo*d <= b - lo  (y <= z - lo(1-d))
      model.add_constraint(pre_terms(1.0, y, -lo, d), lp::Relation::kLe,
                           b - lo);
      // y - hi*d <= 0                  (y <= hi*d)
      model.add_constraint({{y, 1.0}, {d, -hi}}, lp::Relation::kLe, 0.0);
      layer_post[r] = y;
      layer_bin[r] = d;
      ++enc.num_binaries;
    }
    prev_vars = layer_post;
  }

  // Early-layer binaries get the highest branching priority: fixing them
  // stabilizes every downstream neuron.
  enc.branch_priority.assign(
      static_cast<std::size_t>(enc.model.num_variables()), 0.0);
  for (std::size_t li = 0; li < enc.phase_binaries.size(); ++li) {
    for (int d : enc.phase_binaries[li]) {
      if (d >= 0) {
        enc.branch_priority[static_cast<std::size_t>(d)] =
            static_cast<double>(net.num_layers() - li);
      }
    }
  }

  enc.output_vars = enc.post_vars.back();
  return enc;
}

}  // namespace safenn::verify
