// Crash-recovery driver: the measured plant under the supervisor loop.
//
// Runs the full CooperativePerceptionSystem (FDS controller, V2X link
// faults) for a fixed number of rounds inside
// checkpoint::run_with_recovery, snapshotting every few rounds. A
// faults::CrashInjector armed via the AVCP_CRASH environment variable
// ("before:R" | "after:R" | "midwrite:R") kills the process at the planned
// point with exit code 42; rerunning the same command line resumes from
// the newest intact generation. The resume-equivalence contract makes the
// final JSON (stdout) byte-identical no matter how many times — or where —
// the run was interrupted, which is exactly what the CI smoke job asserts:
//
//   bench_recovery --dir d --smoke > ref.json            # uninterrupted
//   AVCP_CRASH=after:5   bench_recovery --dir d2 --smoke   # exits 42
//   AVCP_CRASH=midwrite:8 bench_recovery --dir d2 --smoke  # exits 42
//   bench_recovery --dir d2 --smoke > out.json           # completes
//   diff ref.json out.json
//
// Run metadata that legitimately differs across interrupted runs (what was
// resumed, generations skipped) goes to stderr, never into the JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/policy.h"
#include "checkpoint/recovery.h"
#include "faults/crash_injector.h"
#include "faults/fault_model.h"
#include "scenario/scenario.h"
#include "system/system.h"

using namespace avcp;

int main(int argc, char** argv) {
  std::string dir = "ckpt-recovery";
  std::size_t rounds = 30;
  std::size_t every = 4;
  std::size_t threads = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--every") == 0 && i + 1 < argc) {
      every = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) rounds = 12;

  const auto game = scenario::chain_game(3, 4.0);
  const auto fields =
      scenario::floor_fields(game.num_regions(), game.num_decisions());
  core::FdsController controller(game, fields, bench::bench_fds_options());

  // A lossy link layer, so the cumulative fault counters exercise the
  // snapshot path too (they must survive restore bit-exactly).
  faults::FaultParams fparams;
  fparams.upload_loss_rate = 0.1;
  fparams.seed = 7;
  const faults::FaultModel faults(fparams);

  system::SystemParams params;
  params.vehicles_per_region = smoke ? 24 : 48;
  params.seed = 2024;
  params.num_threads = threads;
  system::CooperativePerceptionSystem plant(game, params, &faults);

  const auto crash = faults::CrashInjector::from_env();
  const checkpoint::CheckpointStore store(dir, /*keep=*/2);
  checkpoint::CheckpointPolicy policy;
  policy.every_rounds = every;

  checkpoint::RecoveryHooks hooks;
  hooks.reset = [&] { plant.init_from(game.uniform_state()); };
  hooks.restore = [&](const checkpoint::CheckpointReader& reader) {
    Deserializer d = reader.section(checkpoint::kSectionSystem);
    plant.load_state(d);
    Deserializer::check(d.exhausted(), "trailing bytes in system section");
  };
  hooks.step = [&](std::size_t round) {
    crash.before_round(round);
    plant.run_round(controller);
    crash.after_round(round);
  };
  hooks.save = [&](checkpoint::CheckpointWriter& writer) {
    plant.save_state(writer.section(checkpoint::kSectionSystem));
  };
  hooks.write = [&](const checkpoint::CheckpointWriter& writer,
                    const std::filesystem::path& path) {
    if (crash.tears_checkpoint(static_cast<std::size_t>(writer.round()))) {
      writer.write_torn(path, writer.encode().size() / 2);
      faults::CrashInjector::crash();
    }
    writer.write(path);
  };

  const auto outcome =
      checkpoint::run_with_recovery(store, policy, rounds, hooks);
  std::fprintf(stderr,
               "recovery: resumed=%d from=%s start_round=%zu "
               "corrupt_skipped=%zu checkpoints_written=%zu\n",
               outcome.resumed ? 1 : 0, outcome.resumed_from.c_str(),
               outcome.start_round, outcome.corrupt_skipped,
               outcome.checkpoints_written);

  // The JSON carries only run-invariant content: identical whether the run
  // was straight-through or crashed and resumed any number of times.
  const core::GameState final_state = plant.empirical_state();
  const auto& counters = plant.fault_counters();
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_recovery\",\n");
  std::printf("  \"rounds\": %zu,\n", rounds);
  std::printf("  \"uploads_lost\": %zu,\n", counters.uploads_lost);
  std::printf("  \"deliveries_lost\": %zu,\n", counters.deliveries_lost);
  std::printf("  \"x\": [");
  for (std::size_t i = 0; i < plant.current_x().size(); ++i) {
    std::printf("%s%.17g", i > 0 ? ", " : "", plant.current_x()[i]);
  }
  std::printf("],\n");
  std::printf("  \"p\": [\n");
  for (std::size_t i = 0; i < final_state.p.size(); ++i) {
    std::printf("    [");
    for (std::size_t k = 0; k < final_state.p[i].size(); ++k) {
      std::printf("%s%.17g", k > 0 ? ", " : "", final_state.p[i][k]);
    }
    std::printf("]%s\n", i + 1 < final_state.p.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return bench::finish_json_output();
}
