#include "lint/concurrency.h"

#include <algorithm>
#include <deque>
#include <set>

namespace maroon {
namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// R014 allowlist: files whose relaxed atomics carry a written
/// no-synchronization argument (monotonic counters read only for reporting,
/// or values republished under a lock / with acquire-release elsewhere).
/// Tests and tools are exempt wholesale, fixture trees are not (as in R009).
bool RelaxedAllowlisted(const std::string& guard_path) {
  static const char* const kRelaxedAllowlist[] = {
      "src/common/thread_pool.",  // pool tick/steal counters
      "src/common/logging.",      // dropped-line counter
      "src/obs/metrics.",         // Counter/Gauge cells
      "src/obs/histogram.",       // striped bucket counters
      "src/obs/trace.",           // span sequence numbers
  };
  for (const char* prefix : kRelaxedAllowlist) {
    if (StartsWith(guard_path, prefix)) return true;
  }
  return (StartsWith(guard_path, "tests/") ||
          StartsWith(guard_path, "tools/")) &&
         guard_path.find("testdata") == std::string::npos;
}

const std::set<std::string>& BlockingFreeCalls() {
  static const std::set<std::string> kCalls = {
      "fsync", "fdatasync", "fwrite", "fread",
      "fflush", "fopen",    "fclose", "rename"};
  return kCalls;
}

const std::set<std::string>& BlockingMemberCalls() {
  static const std::set<std::string> kCalls = {"Append", "Sync", "flush"};
  return kCalls;
}

/// Lock-wrapper class names recognized as scoped acquisitions. Matching is
/// by final identifier, so std::/maroon:: qualification is irrelevant.
bool IsScopedLockType(const std::string& name) {
  return name == "MutexLock" || name == "lock_guard" ||
         name == "unique_lock" || name == "scoped_lock";
}

/// Per-function walker state: one live scoped-lock variable.
struct LockVar {
  std::vector<std::string> ids;  // mutexes it covers (scoped_lock: several)
  bool held = false;
};

class FileChecker {
 public:
  FileChecker(const SourceFile& file, const FileSymbols& symbols,
              const ConcurrencyContext& context,
              std::vector<Finding>* findings, LockOrderGraph* graph)
      : file_(file),
        symbols_(symbols),
        context_(context),
        suppressions_(file.tokens),
        findings_(findings),
        graph_(graph) {}

  void Run() {
    for (const FunctionBody& fn : symbols_.functions) AnalyzeFunction(fn);
    CheckRelaxedAtomics();  // R014 — file-wide, not per function
  }

 private:
  // ----------------------------------------------------------- primitives

  size_t Size() const { return symbols_.sig.size(); }
  const Token& Tok(size_t i) const { return *symbols_.sig[i]; }

  bool IsIdent(size_t i) const {
    return i < Size() && Tok(i).kind == TokenKind::kIdentifier;
  }
  bool IsIdent(size_t i, const char* text) const {
    return IsIdent(i) && Tok(i).text == text;
  }
  bool IsPunct(size_t i, const char* text) const {
    return i < Size() && Tok(i).kind == TokenKind::kPunct &&
           Tok(i).text == text;
  }

  size_t MatchParen(size_t open) const {
    int depth = 0;
    for (size_t i = open; i < Size(); ++i) {
      if (IsPunct(i, "(")) ++depth;
      if (IsPunct(i, ")") && --depth == 0) return i;
    }
    return kNpos;
  }

  size_t TrySkipAngles(size_t open) const {
    int depth = 0;
    for (size_t i = open; i < Size(); ++i) {
      if (Tok(i).kind != TokenKind::kPunct) continue;
      const std::string& t = Tok(i).text;
      if (t == "<") ++depth;
      if (t == "<<") depth += 2;
      if (t == ">") --depth;
      if (t == ">>") depth -= 2;
      if (depth <= 0 && (t == ">" || t == ">>")) return i + 1;
      if (t == ";" || t == "{" || t == "}") return kNpos;
    }
    return kNpos;
  }

  void Emit(const std::string& rule, const Token& at, std::string message) {
    if (suppressions_.Allows(at.line, rule)) return;
    findings_->push_back(
        {rule, file_.display_path, at.line, at.col, std::move(message)});
  }

  const ClassModel* EnclosingClass() const {
    if (current_class_.empty() || context_.classes == nullptr) return nullptr;
    auto it = context_.classes->find(current_class_);
    return it == context_.classes->end() ? nullptr : &it->second;
  }

  // --------------------------------------------------------- mutex naming

  /// Canonical id of a mutex expression ("mu_", "batch->mu", "&state.mu").
  /// `->` normalizes to `.`; a bare member of the enclosing class and a
  /// multi-part chain both get the class (or, outside classes, the file) as
  /// prefix, so every spelling inside one class agrees.
  std::string ResolveMutex(const std::string& raw) const {
    std::string expr;
    expr.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '&' || raw[i] == '*') continue;
      if (raw[i] == '-' && i + 1 < raw.size() && raw[i + 1] == '>') {
        expr += '.';
        ++i;
        continue;
      }
      expr += raw[i];
    }
    if (expr.empty()) return expr;
    const std::string prefix =
        current_class_.empty() ? file_.display_path : current_class_;
    return prefix + "::" + expr;
  }

  /// Collects the receiver chain of a member call: for `a.b->mu . lock (`,
  /// called with `i` at the `.` before "lock", returns "a.b.mu".
  std::string ReceiverChainBefore(size_t dot) const {
    std::vector<std::string> parts;
    size_t i = dot;
    while (i >= 1 && (IsPunct(i, ".") || IsPunct(i, "->")) && IsIdent(i - 1)) {
      parts.push_back(Tok(i - 1).text);
      if (i < 2) break;
      i -= 2;
    }
    if (parts.empty()) return "";
    std::string chain;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!chain.empty()) chain += '.';
      chain += *it;
    }
    return chain;
  }

  // ------------------------------------------------------------ held set

  void AcquireId(const std::string& id, const Token& at) {
    if (id.empty()) return;
    const bool suppressed = suppressions_.Allows(at.line, "R012");
    for (const std::string& held : held_) {
      if (held == id) continue;
      graph_->AddEdge(held, id, file_.display_path, at.line, at.col,
                      current_function_, suppressed);
    }
    held_.push_back(id);
  }

  void ReleaseId(const std::string& id) {
    auto it = std::find(held_.rbegin(), held_.rend(), id);
    if (it != held_.rend()) held_.erase(std::next(it).base());
  }

  bool IsHeld(const std::string& id) const {
    return std::find(held_.begin(), held_.end(), id) != held_.end();
  }

  std::string HeldSummary() const {
    std::string out;
    for (const std::string& id : held_) {
      if (!out.empty()) out += ", ";
      out += "'" + id + "'";
    }
    return out;
  }

  // ------------------------------------------------------- function walk

  void AnalyzeFunction(const FunctionBody& fn) {
    FunctionAnnotations ann = fn.annotations;
    current_class_ = fn.class_name;
    current_function_ = fn.name.empty() ? "<operator>" : fn.name;
    if (const ClassModel* cls = EnclosingClass()) {
      auto it = cls->methods.find(fn.name);
      if (it != cls->methods.end()) ann.MergeFrom(it->second);
    }
    if (ann.no_analysis) return;

    held_.clear();
    lock_vars_.clear();
    frames_.clear();
    frames_.push_back({});

    // Entry held-set: REQUIRES and RELEASE name locks the caller holds on
    // entry; ACQUIRE locks are treated as held for the whole body (the
    // acquisition point inside is not modeled — MutexLock-style wrappers
    // are the only users).
    for (const auto* list : {&ann.requires_held, &ann.acquires,
                             &ann.releases}) {
      for (const std::string& arg : *list) {
        const std::string id = ResolveMutex(arg);
        if (!id.empty() && !IsHeld(id)) held_.push_back(id);
      }
    }

    const size_t end = fn.body_end - 1;  // the closing '}'
    for (size_t i = fn.body_begin + 1; i < end; ++i) {
      if (IsPunct(i, "{")) {
        frames_.push_back({});
        continue;
      }
      if (IsPunct(i, "}")) {
        PopFrame();
        continue;
      }
      if (!IsIdent(i)) continue;
      const std::string& name = Tok(i).text;

      if (IsScopedLockType(name)) {
        const size_t next = HandleLockDeclaration(i);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }

      const bool prev_dot = i >= 1 && (IsPunct(i - 1, ".") ||
                                       IsPunct(i - 1, "->"));
      if (prev_dot && IsPunct(i + 1, "(")) {
        if (name == "lock" || name == "unlock") {
          HandleManualLockCall(i, name == "lock");
          i = MatchParen(i + 1) == kNpos ? i : MatchParen(i + 1);
          continue;
        }
        if (!held_.empty() && BlockingMemberCalls().count(name) > 0) {
          Emit("R013", Tok(i),
               "blocking '." + name + "()' while holding " + HeldSummary() +
                   " in '" + current_function_ +
                   "'; move the I/O outside the critical section");
        }
      }

      if (!prev_dot) {
        HandleUnqualifiedIdent(i, fn);
      } else if (i >= 2 && IsPunct(i - 1, "->") && IsIdent(i - 2, "this")) {
        CheckGuardedFieldAccess(i, fn);
      }
    }
    current_class_.clear();
    current_function_.clear();
  }

  void PopFrame() {
    if (frames_.empty()) return;
    for (const std::string& var : frames_.back()) {
      auto it = lock_vars_.find(var);
      if (it == lock_vars_.end()) continue;
      if (it->second.held) {
        for (const std::string& id : it->second.ids) ReleaseId(id);
      }
      lock_vars_.erase(it);
    }
    frames_.pop_back();
  }

  /// `MutexLock name(&mu_)` / `std::scoped_lock l(a_mu_, b_mu_)` / ... at
  /// sig index `i` (the type identifier). Returns the resume index, or
  /// kNpos when the tokens are not a lock-variable declaration.
  size_t HandleLockDeclaration(size_t i) {
    size_t j = i + 1;
    if (IsPunct(j, "<")) {
      const size_t past = TrySkipAngles(j);
      if (past == kNpos) return kNpos;
      j = past;
    }
    if (!IsIdent(j) || !IsPunct(j + 1, "(")) return kNpos;
    const std::string var = Tok(j).text;
    const size_t open = j + 1;
    const size_t close = MatchParen(open);
    if (close == kNpos) return kNpos;

    // Split the top-level arguments.
    std::vector<std::string> args;
    int depth = 0;
    std::string current;
    for (size_t k = open + 1; k <= close; ++k) {
      if (IsPunct(k, "(")) ++depth;
      if (IsPunct(k, ")") && depth > 0) {
        --depth;
        current += Tok(k).text;
        continue;
      }
      if (k == close || (depth == 0 && IsPunct(k, ","))) {
        if (!current.empty()) args.push_back(current);
        current.clear();
        continue;
      }
      current += Tok(k).text;
    }

    bool deferred = false;
    bool adopted = false;
    std::vector<std::string> mutex_args;
    for (const std::string& arg : args) {
      if (arg.find("defer_lock") != std::string::npos ||
          arg.find("try_to_lock") != std::string::npos) {
        deferred = true;
      } else if (arg.find("adopt_lock") != std::string::npos) {
        adopted = true;
      } else {
        mutex_args.push_back(arg);
      }
    }

    LockVar lock_var;
    for (const std::string& arg : mutex_args) {
      const std::string id = ResolveMutex(arg);
      if (!id.empty()) lock_var.ids.push_back(id);
    }
    if (lock_var.ids.empty()) return kNpos;

    if (!deferred && !adopted) {
      // scoped_lock's own arguments order-insensitively (it deadlock-avoids
      // internally), so edges run only from the previously held set.
      const size_t prior_held = held_.size();
      for (const std::string& id : lock_var.ids) {
        const bool suppressed = suppressions_.Allows(Tok(i).line, "R012");
        for (size_t h = 0; h < prior_held; ++h) {
          if (held_[h] == id) continue;
          graph_->AddEdge(held_[h], id, file_.display_path, Tok(i).line,
                          Tok(i).col, current_function_, suppressed);
        }
        held_.push_back(id);
      }
      lock_var.held = true;
    } else if (adopted) {
      for (const std::string& id : lock_var.ids) held_.push_back(id);
      lock_var.held = true;
    }
    lock_vars_[var] = std::move(lock_var);
    if (!frames_.empty()) frames_.back().push_back(var);
    return close;
  }

  /// `recv.lock()` / `recv.unlock()`: a known lock variable re-acquires or
  /// releases its mutexes; anything else is a manual mutex operation.
  void HandleManualLockCall(size_t i, bool is_lock) {
    const std::string chain = ReceiverChainBefore(i - 1);
    if (chain.empty()) return;
    auto it = chain.find('.') == std::string::npos ? lock_vars_.find(chain)
                                                   : lock_vars_.end();
    if (it != lock_vars_.end()) {
      LockVar& var = it->second;
      if (is_lock && !var.held) {
        for (const std::string& id : var.ids) AcquireId(id, Tok(i));
        var.held = true;
      } else if (!is_lock && var.held) {
        for (const std::string& id : var.ids) ReleaseId(id);
        var.held = false;
      }
      return;
    }
    const std::string id = ResolveMutex(chain);
    if (id.empty()) return;
    if (is_lock) {
      AcquireId(id, Tok(i));
    } else {
      ReleaseId(id);
    }
  }

  /// Unqualified identifier in a body: annotated-callee contracts, R013
  /// free calls, and R011 guarded-field access.
  void HandleUnqualifiedIdent(size_t i, const FunctionBody& fn) {
    const std::string& name = Tok(i).text;
    const bool std_qualified = i >= 2 && IsPunct(i - 1, "::") &&
                               IsIdent(i - 2, "std");
    const bool other_qualified = i >= 1 && IsPunct(i - 1, "::") &&
                                 !std_qualified;

    if (IsPunct(i + 1, "(") && !other_qualified) {
      // Calls to annotated methods of the enclosing class.
      if (const ClassModel* cls = EnclosingClass()) {
        auto it = cls->methods.find(name);
        if (it != cls->methods.end() && !std_qualified) {
          const FunctionAnnotations& callee = it->second;
          for (const std::string& arg : callee.requires_held) {
            const std::string id = ResolveMutex(arg);
            if (!id.empty() && !IsHeld(id)) {
              Emit("R011", Tok(i),
                   "'" + name + "' requires '" + id +
                       "' (MAROON_REQUIRES) but it is not held here");
            }
          }
          for (const std::string& arg : callee.excludes) {
            const std::string id = ResolveMutex(arg);
            if (!id.empty() && IsHeld(id)) {
              Emit("R012", Tok(i),
                   "'" + name + "' excludes '" + id +
                       "' (MAROON_EXCLUDES) but it is held here — "
                       "guaranteed self-deadlock");
            }
          }
          for (const std::string& arg : callee.acquires) {
            AcquireId(ResolveMutex(arg), Tok(i));
          }
          for (const std::string& arg : callee.releases) {
            ReleaseId(ResolveMutex(arg));
          }
        }
      }
      if (!held_.empty() && BlockingFreeCalls().count(name) > 0) {
        Emit("R013", Tok(i),
             "blocking '" + name + "()' while holding " + HeldSummary() +
                 " in '" + current_function_ +
                 "'; move the I/O outside the critical section");
      }
    }

    if (!other_qualified && !std_qualified) CheckGuardedFieldAccess(i, fn);
  }

  void CheckGuardedFieldAccess(size_t i, const FunctionBody& fn) {
    if (fn.is_ctor || fn.is_dtor) return;  // exclusive access, as in Clang
    const ClassModel* cls = EnclosingClass();
    if (cls == nullptr) return;
    auto it = cls->guarded_fields.find(Tok(i).text);
    if (it == cls->guarded_fields.end()) return;
    const std::string guard = ResolveMutex(it->second.guard);
    if (guard.empty() || IsHeld(guard)) return;
    Emit("R011", Tok(i),
         "field '" + it->second.name + "' is MAROON_GUARDED_BY(" +
             it->second.guard + ") but '" + guard + "' is not held in '" +
             current_function_ +
             "'; take a MutexLock or annotate the method MAROON_REQUIRES");
  }

  // ------------------------------------------------------------- R014

  void CheckRelaxedAtomics() {
    if (RelaxedAllowlisted(file_.guard_path)) return;
    for (size_t i = 0; i < Size(); ++i) {
      if (!IsIdent(i, "memory_order_relaxed")) continue;
      Emit("R014", Tok(i),
           "memory_order_relaxed outside the allowlisted counter sites; "
           "relaxed needs a written no-synchronization argument — use "
           "acquire/release, or extend kRelaxedAllowlist in "
           "src/lint/concurrency.cc with a justification");
    }
  }

  const SourceFile& file_;
  const FileSymbols& symbols_;
  const ConcurrencyContext& context_;
  Suppressions suppressions_;
  std::vector<Finding>* findings_;
  LockOrderGraph* graph_;

  std::string current_class_;
  std::string current_function_;
  std::vector<std::string> held_;
  std::map<std::string, LockVar> lock_vars_;
  std::vector<std::vector<std::string>> frames_;
};

}  // namespace

void LockOrderGraph::AddEdge(const std::string& from, const std::string& to,
                             const std::string& file, int line, int col,
                             const std::string& function, bool suppressed) {
  const auto key = std::make_pair(from, to);
  auto it = edges_.find(key);
  if (it == edges_.end()) {
    edges_[key] = Edge{file, function, line, col, suppressed};
  } else if (it->second.suppressed && !suppressed) {
    // A non-suppressed witness outranks a suppressed one: the allow()
    // comment silences its own site, not the edge everywhere.
    it->second = Edge{file, function, line, col, suppressed};
  }
}

std::vector<Finding> LockOrderGraph::CheckCycles() const {
  // Adjacency over non-suppressed edges only.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges_) {
    if (!edge.suppressed) adj[key.first].push_back(key.second);
  }
  auto reaches = [&adj](const std::string& from, const std::string& target) {
    std::set<std::string> seen;
    std::deque<std::string> queue = {from};
    while (!queue.empty()) {
      const std::string node = queue.front();
      queue.pop_front();
      if (node == target) return true;
      if (!seen.insert(node).second) continue;
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) queue.push_back(next);
    }
    return false;
  };

  std::vector<Finding> findings;
  for (const auto& [key, edge] : edges_) {
    if (edge.suppressed) continue;
    if (!reaches(key.second, key.first)) continue;
    findings.push_back(
        {"R012", edge.file, edge.line, edge.col,
         "lock-order cycle: '" + key.second + "' is acquired while holding '" +
             key.first + "' (in '" + edge.function +
             "'), but the reverse order exists elsewhere in the tree; pick "
             "one global order (docs/threading-model.md) and stick to it"});
  }
  return findings;
}

std::vector<std::pair<std::string, std::string>> LockOrderGraph::Edges()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, edge] : edges_) {
    if (!edge.suppressed) out.push_back(key);
  }
  return out;
}

void CheckConcurrency(const SourceFile& file, const FileSymbols& symbols,
                      const ConcurrencyContext& context,
                      std::vector<Finding>* findings, LockOrderGraph* graph) {
  FileChecker(file, symbols, context, findings, graph).Run();
}

}  // namespace lint
}  // namespace maroon
