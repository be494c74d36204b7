#include "compiler/relational_engine.h"

#include "algebra/morsel.h"
#include "compiler/morsel_exec.h"
#include "xquery/parser.h"

namespace xrpc::compiler {

StatusOr<std::vector<xdm::Sequence>> RelationalEngine::ExecuteRequest(
    const soap::XrpcRequest& request, const server::CallContext& context,
    xquery::PendingUpdateList* pul) {
  ++bulk_requests_;

  // Updates run on the separate update path (the interpreter), exactly as
  // MonetDB/XQuery routes XQUF updates outside the loop-lifted plans.
  if (request.updating) {
    ++interpreter_fallbacks_;
    server::InterpreterEngine fallback;
    return fallback.ExecuteRequest(request, context, pul);
  }

  const xquery::LibraryModule* module = nullptr;
  xquery::LibraryModule reparsed;
  if (options_.use_function_cache) {
    if (context.modules == nullptr) {
      return Status::Internal("no module resolver configured");
    }
    XRPC_ASSIGN_OR_RETURN(
        module, context.modules->Resolve(request.module_ns, request.location));
  } else {
    if (options_.registry == nullptr) {
      return Status::Internal("cache-less mode requires a registry");
    }
    XRPC_ASSIGN_OR_RETURN(const std::string* source,
                          options_.registry->SourceOf(request.module_ns));
    XRPC_ASSIGN_OR_RETURN(reparsed, xquery::ParseLibraryModule(*source));
    module = &reparsed;
  }

  const xquery::FunctionDef* def = nullptr;
  for (const xquery::FunctionDef& f : module->prolog.functions) {
    if (f.name.local == request.method && f.arity() == request.arity) {
      def = &f;
      break;
    }
  }
  if (def == nullptr) {
    return Status::NotFound("function " + request.method + "#" +
                            std::to_string(request.arity) +
                            " not found in module " + request.module_ns);
  }

  auto relational = ExecuteRelational(request, context, *module, *def);
  if (relational.ok() ||
      relational.status().code() != StatusCode::kUnsupported) {
    return relational;
  }
  // Outside the relational subset: interpret instead.
  ++interpreter_fallbacks_;
  server::InterpreterEngine::Options iopts;
  iopts.reparse_per_request = !options_.use_function_cache;
  iopts.registry = options_.registry;
  server::InterpreterEngine fallback(iopts);
  return fallback.ExecuteRequest(request, context, pul);
}

StatusOr<std::vector<xdm::Sequence>> RelationalEngine::ExecuteRelational(
    const soap::XrpcRequest& request, const server::CallContext& context,
    const xquery::LibraryModule& module, const xquery::FunctionDef& def) {
  // Shred the request parameters into loop-lifted tables: call i becomes
  // iteration i+1. Calls are independent, so chunks of calls are morsel
  // work ("shred" in the exec metrics); the per-chunk tables concatenate
  // in call order, identical to the serial append.
  int64_t num_calls = static_cast<int64_t>(request.calls.size());
  std::vector<algebra::Table> args(request.arity,
                                   algebra::Table::IterPosItem());
  auto shred_calls = [&](size_t begin, size_t end,
                         std::vector<algebra::Table>* out) -> Status {
    PollGate gate(context.cancel);
    for (size_t call = begin; call < end; ++call) {
      if (gate.Tick()) return gate.status();
      const std::vector<xdm::Sequence>& params = request.calls[call];
      for (size_t p = 0; p < request.arity; ++p) {
        const xdm::Sequence& param = params[p];
        for (size_t k = 0; k < param.size(); ++k) {
          (*out)[p].AppendIPI(static_cast<int64_t>(call + 1),
                              static_cast<int64_t>(k + 1), param[k]);
        }
      }
    }
    return Status::OK();
  };
  MorselExecutor shred_exec(exec_pool_.get(), context.cancel,
                            context.metrics);
  constexpr size_t kShredMorselCalls = 64;
  auto morsels = algebra::SplitRows(request.calls.size(), kShredMorselCalls);
  if (shred_exec.parallel_capable() && morsels.size() > 1) {
    std::vector<std::vector<algebra::Table>> parts(
        morsels.size(), std::vector<algebra::Table>(
                            request.arity, algebra::Table::IterPosItem()));
    XRPC_RETURN_IF_ERROR(
        shred_exec.Run("shred", morsels.size(), [&](size_t m) {
          return shred_calls(morsels[m].begin, morsels[m].end, &parts[m]);
        }));
    for (auto& part : parts) {
      for (size_t p = 0; p < request.arity; ++p) {
        args[p].AppendRowsFrom(std::move(part[p]));
      }
    }
  } else {
    XRPC_RETURN_IF_ERROR(shred_calls(0, request.calls.size(), &args));
  }

  LoopLiftConfig config;
  config.documents = context.documents;
  config.modules = context.modules;
  config.rpc = context.bulk_rpc;
  config.shreds = &shreds_;
  config.cancel = context.cancel;
  config.exec_threads = options_.exec_threads;
  config.exec_pool = exec_pool_.get();
  config.metrics = context.metrics;
  LoopLiftedEvaluator evaluator(config);
  XRPC_ASSIGN_OR_RETURN(
      algebra::Table result,
      evaluator.EvaluateFunctionBulk(module, def, std::move(args), num_calls));

  std::vector<xdm::Sequence> out(static_cast<size_t>(num_calls));
  for (size_t i = 0; i < result.NumRows(); ++i) {
    int64_t iter = result.Iter(i);
    if (iter < 1 || iter > num_calls) {
      return Status::Internal("bulk result iteration out of range");
    }
    out[static_cast<size_t>(iter - 1)].push_back(result.ItemAt(i));
  }
  return out;
}

}  // namespace xrpc::compiler
