// Sec. IV(ii) reproduction: "Recent results on quantized neural networks
// might make verification more scalable via an encoding to bitvector
// theories in SMT."
//
// Quantizes trained predictors to fixed point, verifies the lateral-
// velocity bound by bit-blasting + CDCL SAT, and compares wall-clock and
// verdicts against the real-valued MILP on the same networks. Also
// reports the quantization error so the fidelity/scalability trade is
// visible.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "highway/safety_rules.hpp"
#include "smt/qnn_encoder.hpp"

using namespace safenn;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  highway::SceneEncoder encoder;
  const highway::BuiltDataset built = bench::standard_dataset(encoder);
  const verify::InputRegion region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  const double time_limit =
      bench::env_double("SAFENN_SMT_LIMIT", smoke ? 5.0 : 30.0);
  const double threshold = 3.0;  // the paper's "never larger than 3 m/s"
  // The widest net is where bit-blasting loses: CNF size grows with the
  // weight count, and the sweep below records the crossover width.
  const std::vector<std::size_t> widths =
      smoke ? std::vector<std::size_t>{4u}
            : bench::env_widths("SAFENN_SMT_WIDTHS", {4u, 6u, 10u});
  const std::vector<int> frac_bit_choices =
      smoke ? std::vector<int>{4} : std::vector<int>{4, 6};

  std::printf("== quantized (SAT/bit-vector) vs real-valued (MILP) "
              "verification%s ==\n", smoke ? " (smoke)" : "");
  std::printf("property: component-mean lateral velocity <= %.1f m/s on the "
              "vehicle-on-left region\n\n", threshold);
  std::printf("net   | frac bits | quant err | engine | verdict  | time    | size\n");
  std::printf("------+-----------+-----------+--------+----------+---------+---------------\n");

  struct WidthRow {
    std::size_t width = 0;
    double milp_seconds = 0.0;
    double sat_seconds = 0.0;  // best decided SAT config (inf if none)
    bool sat_decided = false;
  };
  std::vector<WidthRow> sweep;

  for (std::size_t width : widths) {
    const core::TrainedPredictor predictor =
        bench::train_predictor(built.data, width);
    WidthRow row;
    row.width = width;

    // MILP on the real-valued network (all components).
    {
      verify::VerifierOptions opts;
      opts.time_limit_seconds = time_limit;
      opts.warm_start_split_seconds = time_limit * 0.2;
      const core::PredictorProof proof = core::prove_lateral_velocity_bound(
          predictor, encoder, threshold, opts, &region);
      std::printf("I4x%-2zu | %9s | %9s | MILP   | %-8s | %6.2fs | -\n",
                  width, "-", "-",
                  verify::to_string(proof.verdict).c_str(), proof.seconds);
      row.milp_seconds = proof.seconds;
    }

    // SAT on quantized variants.
    for (int frac_bits : frac_bit_choices) {
      const nn::QuantizedNetwork qnet =
          nn::QuantizedNetwork::quantize(predictor.network, frac_bits);
      std::vector<linalg::Vector> probes;
      for (std::size_t i = 0; i < 60; ++i) {
        probes.push_back(built.data.input(i * built.data.size() / 60));
      }
      const double err =
          qnet.quantization_error(predictor.network, probes);

      // Verify every component's mean output via the SAT engine.
      double total_seconds = 0.0;
      sat::SatResult worst = sat::SatResult::kUnsat;
      int vars = 0;
      std::size_t clauses = 0;
      long long conflicts = 0;
      smt::QnnVerifierOptions qopts;
      for (std::size_t k = 0; k < predictor.head.components(); ++k) {
        const std::size_t out_index =
            predictor.head.mean_index(k, highway::kActionLateral);
        qopts.solver.time_limit_seconds = time_limit;  // per component
        const smt::QnnVerdict v = smt::prove_quantized_output_bound(
            qnet, region.box, out_index, threshold, qopts);
        total_seconds += v.seconds;
        vars = v.cnf_variables;
        clauses = v.cnf_clauses;
        conflicts += v.solver_stats.conflicts;
        if (v.sat == sat::SatResult::kSat) worst = sat::SatResult::kSat;
        if (v.sat == sat::SatResult::kUnknown &&
            worst == sat::SatResult::kUnsat) {
          worst = sat::SatResult::kUnknown;
        }
      }
      const char* verdict = worst == sat::SatResult::kUnsat   ? "proved"
                            : worst == sat::SatResult::kSat   ? "violated"
                                                              : "unknown";
      std::printf("I4x%-2zu | %9d | %9.4f | SAT    | %-8s | %6.2fs | "
                  "%d vars, %zu clauses, %lld conflicts (%.0f/s)\n",
                  width, frac_bits, err, verdict, total_seconds, vars,
                  clauses, conflicts,
                  total_seconds > 0.0 ? conflicts / total_seconds : 0.0);
      if (worst != sat::SatResult::kUnknown &&
          (!row.sat_decided || total_seconds < row.sat_seconds)) {
        row.sat_decided = true;
        row.sat_seconds = total_seconds;
      }
    }
    sweep.push_back(row);
  }

  // Where does the CNF route stop being competitive? "Competitive" means
  // the SAT engine decided the (quantized) query within the MILP's
  // wall-clock on the same network.
  std::printf("\n== CNF competitiveness sweep ==\n");
  std::size_t crossover = 0;
  for (const WidthRow& row : sweep) {
    const bool competitive =
        row.sat_decided && row.sat_seconds <= row.milp_seconds;
    std::printf("I4x%-2zu: SAT %s (%.2fs) vs MILP %.2fs -> %s\n", row.width,
                row.sat_decided ? "decided" : "undecided",
                row.sat_decided ? row.sat_seconds : time_limit,
                row.milp_seconds,
                competitive ? "competitive" : "not competitive");
    if (!competitive && crossover == 0) crossover = row.width;
  }
  if (crossover != 0) {
    std::printf("CNF stops being competitive at width %zu on this sweep.\n",
                crossover);
  } else {
    std::printf("CNF stayed competitive across the whole sweep.\n");
  }
  std::printf("\nnote: SAT proves the property of the *quantized* network; "
              "quant err bounds the deviation from the float network.\n");
  return 0;
}
