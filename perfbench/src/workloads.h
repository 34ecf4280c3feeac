#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// commit_offchain, commit_dred and read_mixed: a durable Server behind
/// the localhost socket listener, driven by in-process client threads.
bool IsServerWorkload(const std::string& name);
void RunServerWorkload(const Args& args, Outcome* out);
/// Times each server-side module's public entry point on the inputs of
/// `args.workload` (commit_offchain's inputs for a non-server workload).
void ServerLayerProbes(const Args& args, Outcome* out);

/// eval_family: the paper's worked queries through Engine.
void RunEvalWorkload(const Args& args, Outcome* out);
/// One evaluation of each query, reporting LastRunStats counters.
void EvalLayerProbes(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
