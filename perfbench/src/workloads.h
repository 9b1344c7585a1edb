#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The three workloads. Each builds its inputs from `args.seed`, sets up
/// `kSetupReps` times, measures for about `args.seconds`, checks its
/// outputs against an oracle and fills `report`. A non-OK status means
/// the run could not be carried out at all (no result is printed).

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// Paper §6.1 batches with DOTIL between them, over WatDiv.
dskg::Status RunBatchTune(const Args& args, Report* report);

/// Closed-loop wire clients against an in-process server over YAGO.
dskg::Status RunWireServe(const Args& args, Report* report);

/// Durable update stream beside a reader, checkpoint, crash, recovery.
dskg::Status RunOnlineIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
