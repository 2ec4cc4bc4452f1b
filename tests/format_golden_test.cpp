//===- tests/format_golden_test.cpp - Pinned on-disk byte formats ---------===//
//
// Golden hashes of every on-disk format: a graph built from one generated
// project, that graph's constraint shard, one state snapshot, one journal
// (header plus a record), and the cache entries both caches write for the
// project, file name included. Cache and state directories written by an
// earlier build stay readable only while these bytes stay the same, so a
// failure here means a format changed: bump the codec's version constant,
// then record the new hashes.
//
// Beside them sits the digest of the constraint system generated from a
// fixed corpus. Direct generation and shard composition share one Fig. 4
// emitter, so comparing them with each other cannot catch a change to
// what both emit; this digest can. A failure there means the generated
// system changed, and with it every learned score.
//
// Last, the point-query answers are pinned: the wire JSON and the text of
// every variable's explanation under a fixed solve, passive and with
// feedback rows, on the scan and on the row index. The two paths share
// one walk and one renderer, so comparing them with each other cannot
// catch a change to what both render; this digest can. A failure there
// means `seldond`'s `query` and `seldon explain` output changed.
//
// The frontend's output is pinned too: the tokens, diagnostics, AST dump
// and module graph of one hand-written source that holds every token
// kind, number form, string prefix, escape and indentation case the lexer
// knows, and the AST dumps and diagnostics of a generated corpus. The
// lexer and parser may be rewritten for speed; these digests say whether
// what they produce moved.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/GraphCache.h"
#include "cache/ShardCache.h"
#include "constraints/Explain.h"
#include "constraints/ShardCodec.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphCodec.h"
#include "pyast/AstPrinter.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"
#include "service/QueryResult.h"
#include "service/StateCodec.h"
#include "support/BinaryCodec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>

using namespace seldon;

namespace {

std::string hex(uint64_t Value) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

/// FNV-1a-64 of \p Bytes, printed as hex so a failure shows the new value.
std::string digest(std::string_view Bytes) {
  return hex(codec::fnv1a64(Bytes));
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// The fixed inputs: the first project of the seed-4242 test corpus, its
/// graph under default build options, and that graph's whole-file shard.
struct Inputs {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/2);
  const pysem::Project &Proj = Data.Projects.front();
  propgraph::PropagationGraph Graph = propgraph::buildProjectGraph(Proj);
  constraints::ConstraintShard Shard = constraints::extractShard(
      Graph, 0, static_cast<uint32_t>(Graph.files().size()));
  cache::CacheKey GraphKey =
      cache::projectCacheKey(Proj, propgraph::BuildOptions());
  cache::CacheKey ShardKey = cache::projectShardKey(
      GraphKey, constraints::GenOptions(), Data.Seed);
};

/// FNV-1a-64 of a constraint system: its variable table, its pins, every
/// row's terms, coefficient bits and slack C, and the candidate statistics.
std::string systemDigest(const constraints::ConstraintSystem &Sys) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Bits = [](auto Value) {
    uint64_t Out = 0;
    std::memcpy(&Out, &Value, sizeof(Value));
    return Out;
  };
  auto Terms = [&](std::span<const solver::Term> Ts) {
    codec::hashValue(Hash, Ts.size());
    for (const solver::Term &T : Ts) {
      codec::hashValue(Hash, T.Var);
      codec::hashValue(Hash, Bits(T.Coef));
    }
  };
  codec::hashValue(Hash, Sys.Vars.numVars());
  for (uint32_t V = 0; V < Sys.Vars.numVars(); ++V) {
    codec::hashValue(Hash, Sys.Vars.repOf(V));
    codec::hashValue(Hash, static_cast<uint64_t>(Sys.Vars.roleOf(V)));
  }
  codec::hashValue(Hash, Sys.Pinned.size());
  for (const auto &[Var, Value] : Sys.Pinned) {
    codec::hashValue(Hash, Var);
    codec::hashValue(Hash, Bits(Value));
  }
  codec::hashValue(Hash, Sys.Constraints.size());
  for (const solver::LinearConstraint &LC : Sys.Constraints) {
    Terms(LC.Lhs);
    Terms(LC.Rhs);
    codec::hashValue(Hash, Bits(LC.C));
  }
  codec::hashValue(Hash, Sys.NumCandidates);
  codec::hashValue(Hash, Bits(Sys.AvgBackoffOptions));
  return hex(Hash);
}

/// The system a session generates for \p Data: directly, or composed from
/// the shards in \p ShardDir when it is non-empty.
std::string generatedDigest(const corpus::Corpus &Data, unsigned Jobs,
                            size_t MaxPairs, const std::string &ShardDir = "",
                            bool Collapse = false) {
  infer::PipelineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Gen.MaxPairsPerAnchor = MaxPairs;
  Opts.CollapseForLearning = Collapse;
  infer::Session S(std::move(Opts));
  if (!ShardDir.empty())
    S.enableShardCache(ShardDir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return systemDigest(S.system());
}

service::StateSnapshot snapshot() {
  service::StateSnapshot S;
  S.LastSeq = 42;
  S.Fingerprint = 0x1234'5678'9abc'def0ull;
  S.Solve.X = {0.0, 1.0, 0.1, 1.0 / 3.0, 0.30000000000000004, -0.0};
  S.Solve.FinalObjective = 0.0625;
  S.Solve.Iterations = 600;
  S.Solve.Converged = true;
  S.Solve.NonFiniteSteps = 1;
  S.Solve.Recoveries = 2;
  S.FeedbackOpts.AcceptWeight = 1.5;
  S.FeedbackOpts.RejectWeight = 0.5;
  S.FeedbackOpts.SimilarityDecay = 0.25;
  S.Feedback.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  S.Feedback.push_back({"eval()", propgraph::Role::Sink, false});
  return S;
}

service::JournalRecord record() {
  service::JournalRecord R;
  R.Seq = 7;
  R.Op = service::JournalOp::Feedback;
  R.Entries.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  R.Entries.push_back({"os.system()", propgraph::Role::Sink, false});
  R.FeedbackOpts.AcceptWeight = 2.5;
  R.FeedbackOpts.RejectWeight = 0.75;
  R.FeedbackOpts.SimilarityDecay = 0.125;
  R.Iters = 321;
  R.WarmStart = true;
  return R;
}

TEST(FormatGoldenTest, GraphEncodingIsPinned) {
  Inputs In;
  EXPECT_EQ(digest(propgraph::encodeGraph(In.Graph)), "0xa6bef51c8918a74a");
}

TEST(FormatGoldenTest, ShardEncodingIsPinned) {
  Inputs In;
  EXPECT_EQ(digest(constraints::encodeShard(In.Shard)),
            "0x187ec98c5ef8142f");
}

TEST(FormatGoldenTest, SnapshotEncodingIsPinned) {
  EXPECT_EQ(digest(service::encodeSnapshot(snapshot())),
            "0xdbf9c8faa3036085");
}

TEST(FormatGoldenTest, JournalEncodingIsPinned) {
  EXPECT_EQ(digest(service::journalHeader() +
                   service::encodeJournalRecord(record())),
            "0xf5157d4cfe0bd4fd");
}

TEST(FormatGoldenTest, CacheEntriesArePinned) {
  Inputs In;
  std::string Dir = testutil::makeScratchDir("format-golden");
  cache::GraphCache Graphs(Dir);
  cache::ShardCache Shards(Dir);
  ASSERT_TRUE(Graphs.store(In.GraphKey, In.Graph));
  ASSERT_TRUE(Shards.store(In.ShardKey, In.Shard));

  EXPECT_EQ(Graphs.entryPath(In.GraphKey), Dir + "/5d6c9faec19d2c25.spg");
  EXPECT_EQ(digest(slurp(Graphs.entryPath(In.GraphKey))),
            "0x491bedde28787ae1");
  EXPECT_EQ(Shards.entryPath(In.ShardKey), Dir + "/26f2ccfb8e6766cb.scs");
  EXPECT_EQ(digest(slurp(Shards.entryPath(In.ShardKey))),
            "0x04458864421643a0");
  std::filesystem::remove_all(Dir);
}

/// The generated constraint system is pinned too: direct generation at any
/// job count, and shard composition cold and warm, all reproduce it, at the
/// default pair cap and at a cap of 1 that drops pairs.
TEST(FormatGoldenTest, GeneratedSystemIsPinned) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  for (size_t MaxPairs : {size_t(4096), size_t(1)}) {
    const std::string Pinned =
        MaxPairs == 1 ? "0x4b7c0ce782d04925" : "0x699dffbc9f022def";
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE("cap " + std::to_string(MaxPairs) + ", jobs " +
                   std::to_string(Jobs));
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs), Pinned) << "direct";
      std::string Dir = testutil::makeScratchDir("system-golden");
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs, Dir), Pinned)
          << "composed, cold";
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs, Dir), Pinned)
          << "composed, warm";
      std::filesystem::remove_all(Dir);
    }
  }
  EXPECT_EQ(generatedDigest(Data, 4, 4096, "", /*Collapse=*/true),
            "0xac8dace8744e88d4");
}

/// FNV-1a-64 over the JSON and text answer to every variable of \p R's
/// system, plus one not-found query, found by a scan or, with \p Index,
/// through the daemon's row index.
std::string queryDigest(const infer::PipelineResult &R,
                        const constraints::RowIndex *Index = nullptr) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Fold = [&](const service::QueryResult &Q) {
    codec::hashChunk(Hash, service::renderQueryJson(Q));
    codec::hashChunk(Hash, service::renderQueryText(Q));
  };
  const constraints::VarTable &Vars = R.System.Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V)
    Fold(service::queryRep(R.System, R.Reps,
                           R.Reps.repString(Vars.repOf(V)), Vars.roleOf(V),
                           R.Solve.X, Index));
  service::QueryResult Missing =
      service::queryRep(R.System, R.Reps, "never.seen()",
                        propgraph::Role::Sink, R.Solve.X, Index);
  EXPECT_FALSE(Missing.Found);
  Fold(Missing);
  return hex(Hash);
}

/// Every query answer is pinned, after a passive solve and after a solve
/// that carries weighted, decayed feedback rows, on the scan `seldon
/// explain` takes and on the index `seldond` takes.
TEST(FormatGoldenTest, QueryAnswersArePinned) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  auto Solve = [&](const constraints::FeedbackSet *Feedback) {
    infer::PipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.Solve.MaxIterations = 300;
    Opts.Feedback = Feedback;
    Opts.FeedbackOpts.AcceptWeight = 2.0;
    Opts.FeedbackOpts.RejectWeight = 1.5;
    Opts.FeedbackOpts.SimilarityDecay = 0.25;
    infer::Session S(std::move(Opts));
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  };
  auto ExpectDigest = [](const infer::PipelineResult &R,
                         const std::string &Pinned, const char *What) {
    constraints::RowIndex Index = constraints::buildRowIndex(R.System);
    EXPECT_EQ(queryDigest(R), Pinned) << What << ", scanned";
    EXPECT_EQ(queryDigest(R, &Index), Pinned) << What << ", indexed";
  };
  infer::PipelineResult Passive = Solve(nullptr);
  ExpectDigest(Passive, "0x6381fe8a60b1bc61", "passive");

  // One verdict per role on the most specific option of the first event
  // whose two leading options both have a variable in that role, so the
  // decayed similarity rows appear as well.
  const constraints::ConstraintSystem &Sys = Passive.System;
  constraints::FeedbackSet Verdicts;
  for (propgraph::Role R : {propgraph::Role::Source,
                            propgraph::Role::Sanitizer,
                            propgraph::Role::Sink}) {
    for (const propgraph::Event &E : Passive.Graph->events()) {
      std::vector<propgraph::RepId> Options;
      for (propgraph::RepId Id : E.repIds())
        if (Sys.Kept[Id])
          Options.push_back(Id);
      constraints::VarId V;
      if (Options.size() < 2 || !Sys.Vars.lookup(Options[0], R, V) ||
          !Sys.Vars.lookup(Options[1], R, V))
        continue;
      const std::string &Rep = Passive.Reps.repString(Options[0]);
      if (R == propgraph::Role::Sink)
        Verdicts.reject(Rep, R);
      else
        Verdicts.accept(Rep, R);
      break;
    }
  }
  infer::PipelineResult Guided = Solve(&Verdicts);
  EXPECT_GT(Guided.Feedback.EvidenceRows, 0u);
  EXPECT_GT(Guided.Feedback.PropagatedRows, 0u);
  ExpectDigest(Guided, "0x5ff504a3f805ca0d", "feedback");
}

/// A source holding every token kind, every number form, every string
/// prefix in both cases with all four quote styles, every escape the
/// lexer decodes plus unknown ones, f-string fields (nested, `=` debug,
/// `{{`/`}}`, unterminated), line continuations, tabs, mixed indentation,
/// an inconsistent dedent, comments, whitespace-only lines, recoverable
/// syntax errors, and a backslash at end of input.
std::string everyConstructSource() {
  std::string S = R"py(# Every construct the frontend knows; statements need not make sense.
import os.path, sys as system
from . import sibling
from ..pkg.mod import (a as b, c,)
from x import *
import flask

@flask.route('/r', methods=['GET', "POST"])
@decor
def handler(p, q=1, *args, k: int = 2, **kw) -> str:
    global g1, g2
    nonlocal n1
    r = p if q else not q
    r += 1; r -= 2; r *= 3; r /= 4; r //= 5; r %= 6; r **= 7
    r &= 8; r |= 9; r ^= 10; r <<= 11; r >>= 12; r @= m
    t: int = r
    u: str
    v = w = (r + q - 1) * 2 / 3 // 4 % 5 ** -6 @ m
    x = (a | b) ^ (c & d) << 1 >> 2
    y = ~a, +b, -c
    z = a < b <= c > d >= e == f != g
    i = a is b, a is not b, a in b, a not in b
    j = a and b or not c
    k = None if False else True
    lst = [1, *rest]; tup = (); st = {1, 2}; dct = {'k': v, **extra}; emp = {}
    comp = [e for e in lst if e], {e for e in lst}, {k: v for k, v in dct}
    gen = (e for e in lst), call(e for e in lst), {**base}
    sl = lst[1:2], lst[::2], lst[:], lst[1:2:3], lst[a, b:c], lst[-1]
    lam = lambda a, b=1, *c, **d: a + b
    if (n := len(lst)) > 10:
        pass
    elif n:
        return
    else:
        yield r
        yield from lst
        yield
    while True:
        break
    else:
        continue
    for a, *b in lst:
        del a, b
    else:
        assert a, 'msg'
    with open(p) as fh, lock:
        fh.read()
    try:
        raise ValueError('x') from err
    except (TypeError, KeyError) as e:
        raise
    except:
        pass
    else:
        x = 1
    finally:
        x = 2
    return r.attr[0].meth(1, *a, k=2, **kw)

class Base(object, metaclass=Meta):
    attr = 1
    def m(self): return self.attr
    def n(self, v):
        self.f = os.environ.get('A')
        os.system(self.f)

class Bare: pass

n = 0x1F, 0XFF, 0o17, 0O7, 0b1010, 0B1, 0b102, 0x_ff
f = 3.14, 10., 1.e5, .5, 1e10, 1E-5, 2.5e+3, 1e, 3j, 4.5J, 5.j, 1_000_000
g = 1__2, 007, 1.real, 1..real, x[0].y, 0.0, 00
e1 = 'n\n t\t r\r z\0 z\012 bs\\ sq\' dq\" x\x41 u\u00e9 N\N{DASH} a\a b\b f\f v\v d\d 1\1 q\q'
e2 = "cont\
inued"
e3 = '''tri'ple "q" ''x'' \''' end'''
e4 = """a "b" ""c"" \""" d"""
e5 = b'\n' B"\t" u'\\' '' "" '''''' """"""
e6 = 'adj' "acent" f'{e1}'
e7 = r'\'' R"\\" rb'\n'
u1 = 'unterminated
u2 = "also unterminated
f1 = f'{x!r:>{width}} {y=} {z = } {{literal}} {d["k"]} {f"{nested}"} {a!=b} {o.attr[0]:x}'
f2 = f"{"
f3 = F'''multi
{line}'''
f4 = rf'{raw}\n' fR"{x}" f'{{}}' f'}}{{' f'{a}{b}' f'{}'
rb = 1; f = 2; rbuf'x'; ur'y'
cont = 1 + \
    2
)py";
  // Every string prefix, lower and upper case, with each quote style.
  for (const char *Prefix :
       {"", "r", "R", "b", "B", "u", "U", "f", "F", "rb", "Rb", "rB", "RB",
        "br", "bR", "Br", "BR", "fr", "Fr", "fR", "FR", "rf", "rF", "Rf",
        "RF"})
    for (const char *Quote : {"'", "\"", "'''", "\"\"\""})
      S += std::string("s_") + Prefix + " = " + Prefix + Quote +
           "a{x}\\tb{{c}}" + Quote + "\n";
  S += "if tabbed:\n"
       "\tt1 = 1\n"
       "        t2 = 2  # eight spaces, the tab's level\n"
       "\tif deeper:\n"
       "\t    t3 = 3\n"
       "   \n"
       "\t\n"
       "  \t  \n"
       "    # an indented comment\n"
       "  \t t4 = 4\n"
       "crlf = 1\r\n"
       "cr = 1 \r+ 2\n"
       "bad = 1 $ 2 ? 3 ! 4 ` 5 \\ 6\n"
       "def ():\n"
       "    pass\n"
       "x = = 1\n"
       "try:\n"
       "    pass\n"
       "class :\n"
       "    pass\n"
       "import\n"
       "from import x\n"
       "@dec\n"
       "x = 1\n"
       "a = 1;\n"
       "tail = 'ends in a backslash\\";
  return S;
}

/// The text of \p T as the frontend's consumers see it: the spelling of a
/// name or number, the decoded body of a string, and nothing otherwise.
std::string tokenText(const pyast::Token &T) {
  if (T.is(pyast::TokenKind::String))
    return pyast::decodedText(T);
  if (T.is(pyast::TokenKind::Name) || T.is(pyast::TokenKind::Number))
    return std::string(T.Text);
  return {};
}

/// FNV-1a-64 over every token of \p Source: kind, text, line, column and
/// f-string flag.
std::string tokenDigest(std::string_view Source) {
  pyast::Lexer Lex(Source);
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (const pyast::Token &T : Lex.lexAll()) {
    codec::hashValue(Hash, static_cast<uint64_t>(T.Kind));
    codec::hashChunk(Hash, tokenText(T));
    codec::hashValue(Hash, T.Line);
    codec::hashValue(Hash, T.Col);
    codec::hashValue(Hash, T.IsFString);
  }
  return hex(Hash);
}

/// Folds \p Source's lexer and parser diagnostics into \p DiagHash and its
/// AST dump into \p AstHash.
void foldParse(std::string_view Source, uint64_t &DiagHash,
               uint64_t &AstHash) {
  pyast::AstContext Ctx;
  std::vector<pyast::ParseError> Errors;
  const pyast::ModuleNode *M = pyast::parseSource(Ctx, Source, &Errors);
  codec::hashValue(DiagHash, Errors.size());
  for (const pyast::ParseError &E : Errors) {
    codec::hashValue(DiagHash, E.Line);
    codec::hashValue(DiagHash, E.Col);
    codec::hashChunk(DiagHash, E.Message);
  }
  codec::hashChunk(AstHash, pyast::dumpAst(M));
}

TEST(FormatGoldenTest, EveryConstructFrontendIsPinned) {
  const std::string Source = everyConstructSource();
  ASSERT_EQ(Source.find("\\\r\n"), std::string::npos);
  for (char C : Source)
    ASSERT_LT(static_cast<unsigned char>(C), 0x80);

  // The source really holds every token kind.
  std::vector<bool> Seen(static_cast<size_t>(pyast::TokenKind::Error) + 1);
  pyast::Lexer Lex(Source);
  for (const pyast::Token &T : Lex.lexAll())
    Seen[static_cast<size_t>(T.Kind)] = true;
  for (size_t K = 0; K < Seen.size(); ++K)
    EXPECT_TRUE(Seen[K]) << pyast::tokenKindName(
        static_cast<pyast::TokenKind>(K));

  EXPECT_EQ(tokenDigest(Source), "0x06d4d977e1e9d6cf");
  uint64_t DiagHash = 0xcbf29ce484222325ull, AstHash = DiagHash;
  foldParse(Source, DiagHash, AstHash);
  EXPECT_EQ(hex(DiagHash), "0xe6f4da4d786fd230");
  EXPECT_EQ(hex(AstHash), "0xe243f788f1d26c21");

  pysem::Project Proj("every-construct");
  const pysem::ModuleInfo &M = Proj.addModule("pkg/every.py", Source);
  EXPECT_EQ(digest(propgraph::encodeGraph(
                propgraph::buildModuleGraph(Proj, M))),
            "0x1d9f2d953949d66f");
}

/// A two-module project whose flow runs through what the generated corpus
/// lacks: branches merged at module and function level, `global`
/// write-through, `del`, `locals()` in a method, a function and at module
/// level, a constructed instance and `self`, a decorator, and calls into
/// the sibling module, imported absolutely and relatively.
pysem::Project flowsProject() {
  pysem::Project P("flows");
  P.addModule("pkg/util.py", R"py(import os
from flask import request

def scrub(value, mode='strict'):
    if mode:
        out = os.path.normpath(value)
    else:
        out = value
    return out

def fetch():
    return request.args.get('q')
)py");
  P.addModule("pkg/app.py", R"py(import db
from pkg.util import scrub, fetch
from . import util

counter = 0
cache = {}

def bump(v):
    global counter
    counter = counter + v
    del v
    return counter

class Store(Base):
    kind = 'mem'
    def __init__(self, conn):
        self.conn = conn
        self.items = []
    def put(self, item):
        self.items.append(item)
        self.conn.execute(item)
        return self
    def dump(self):
        ctx = locals()
        for i in self.items:
            db.log(i, ctx)

@app.route('/x')
def view():
    q = fetch()
    s = Store(db.connect())
    if q:
        r = scrub(q)
    elif cache:
        r = cache[q]
    else:
        r = util.scrub(q, mode=None)
        del q
    s.put(r).dump()
    rows = [x.strip() for x in r if x]
    total = bump(len(rows))
    with open(r) as fh:
        data = fh.read()
    try:
        db.run(data, *rows, **cache)
    except Exception as e:
        db.log(e)
    finally:
        locals()
    return {'rows': rows, 'total': total}

x = view()
if x:
    y = x['rows']
else:
    y = locals()
db.run(y, counter)
)py");
  return P;
}

/// The project graphs of a generated corpus, of the every-construct
/// module and of flowsProject() encode to the same bytes under the
/// default build options and under each non-default mode: one digest per
/// option set, so a rewrite of the walk that moves an event, an option or
/// an edge in any mode shows here.
TEST(FormatGoldenTest, GraphBytesArePinnedUnderEveryBuildOption) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  pysem::Project Every("every-construct");
  Every.addModule("pkg/every.py", everyConstructSource());
  const pysem::Project Flows = flowsProject();
  for (const pysem::ModuleInfo &M : Flows.modules()) {
    pyast::AstContext Ctx;
    std::vector<pyast::ParseError> Errors;
    pyast::parseSource(Ctx, M.Source, &Errors);
    EXPECT_TRUE(Errors.empty()) << M.Path;
  }
  const pysem::Project *const HandWritten[] = {&Every, &Flows};
  auto GraphsDigest = [&](const propgraph::BuildOptions &Opts) {
    uint64_t Hash = 0xcbf29ce484222325ull;
    for (const pysem::Project &P : Data.Projects)
      codec::hashChunk(Hash, propgraph::encodeGraph(
                                 propgraph::buildProjectGraph(P, Opts)));
    for (const pysem::Project *P : HandWritten)
      codec::hashChunk(Hash, propgraph::encodeGraph(
                                 propgraph::buildProjectGraph(*P, Opts)));
    return hex(Hash);
  };
  struct Mode {
    const char *Name;
    bool propgraph::BuildOptions::*Flag; ///< Flipped from its default.
    const char *Pinned;
  };
  const Mode Modes[] = {
      {"default", nullptr, "0x423c91821cfa324a"},
      {"ArgPositionReps", &propgraph::BuildOptions::ArgPositionReps,
       "0x0770e1ba580b7d0a"},
      {"PreciseInlining", &propgraph::BuildOptions::PreciseInlining,
       "0xb43952b5edc5cc77"},
      {"CrossModuleFlows", &propgraph::BuildOptions::CrossModuleFlows,
       "0x94f99df76b389810"},
      {"UsePointsTo", &propgraph::BuildOptions::UsePointsTo,
       "0x24ce71b419e17e59"},
      {"ModelLocals", &propgraph::BuildOptions::ModelLocals,
       "0xca069caeefe0d0fb"},
  };
  for (const Mode &M : Modes) {
    propgraph::BuildOptions Opts;
    if (M.Flag)
      Opts.*M.Flag = !(Opts.*M.Flag);
    EXPECT_EQ(GraphsDigest(Opts), M.Pinned) << M.Name;
  }
}

/// Every module of a generated corpus parses to the same dump with the
/// same diagnostics.
TEST(FormatGoldenTest, GeneratedCorpusFrontendIsPinned) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  uint64_t DiagHash = 0xcbf29ce484222325ull, AstHash = DiagHash;
  size_t Modules = 0;
  for (const pysem::Project &P : Data.Projects)
    for (const pysem::ModuleInfo &M : P.modules()) {
      foldParse(M.Source, DiagHash, AstHash);
      ++Modules;
    }
  EXPECT_GT(Modules, 6u);
  EXPECT_EQ(hex(DiagHash), "0xad7f8afd9dfb20e5");
  EXPECT_EQ(hex(AstHash), "0x53479329aa5d77b4");
}

} // namespace
