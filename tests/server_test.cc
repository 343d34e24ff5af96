// Tests for the RESP network front end: parser unit tests, live-server
// command coverage, pipelined batch coalescing into the engine's MultiGet
// path, protocol torture (malformed frames must never crash the server),
// mid-frame client death, thread-mode matrix, and YCSB workload A-F
// equivalence between in-process and remote (loopback) execution.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/tierbase.h"
#include "server/client.h"
#include "server/command.h"
#include "server/event_loop.h"
#include "server/resp.h"
#include "server/server.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace server {
namespace {

using RespType = RespValue::Type;

// ---------------------------------------------------------------------------
// RESP parser unit tests (no sockets).
// ---------------------------------------------------------------------------

std::vector<std::string> ArgsOf(const RespCommand& cmd) {
  std::vector<std::string> out;
  for (const Slice& arg : cmd.args) out.push_back(arg.ToString());
  return out;
}

TEST(RespParserTest, ParsesMultibulkCommand) {
  const std::string wire = "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n";
  std::vector<RespCommand> cmds;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResult::kOk, ParseRequests(wire.data(), wire.size(), &cmds,
                                            &consumed, &error));
  EXPECT_EQ(wire.size(), consumed);
  ASSERT_EQ(1u, cmds.size());
  EXPECT_EQ((std::vector<std::string>{"SET", "k", "hello"}),
            ArgsOf(cmds[0]));
}

TEST(RespParserTest, ParsesPipelinedCommandsInOnePass) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    wire += "*2\r\n$3\r\nGET\r\n$2\r\nk" + std::to_string(i) + "\r\n";
  }
  std::vector<RespCommand> cmds;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResult::kOk, ParseRequests(wire.data(), wire.size(), &cmds,
                                            &consumed, &error));
  EXPECT_EQ(wire.size(), consumed);
  ASSERT_EQ(5u, cmds.size());
  EXPECT_EQ("k4", cmds[4].args[1].ToString());
}

TEST(RespParserTest, PartialFrameConsumesNothing) {
  const std::string full = "*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n";
  // Every proper prefix parses to zero commands and waits for more bytes.
  for (size_t cut = 1; cut < full.size(); ++cut) {
    std::vector<RespCommand> cmds;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseResult::kOk,
              ParseRequests(full.data(), cut, &cmds, &consumed, &error))
        << "cut=" << cut;
    EXPECT_EQ(0u, consumed) << "cut=" << cut;
    EXPECT_TRUE(cmds.empty()) << "cut=" << cut;
  }
}

TEST(RespParserTest, CompleteThenPartialConsumesOnlyComplete) {
  const std::string first = "*1\r\n$4\r\nPING\r\n";
  const std::string wire = first + "*2\r\n$3\r\nGET";
  std::vector<RespCommand> cmds;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResult::kOk, ParseRequests(wire.data(), wire.size(), &cmds,
                                            &consumed, &error));
  EXPECT_EQ(first.size(), consumed);
  ASSERT_EQ(1u, cmds.size());
}

TEST(RespParserTest, InlineCommands) {
  const std::string wire = "PING\r\nSET key  value\n";
  std::vector<RespCommand> cmds;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResult::kOk, ParseRequests(wire.data(), wire.size(), &cmds,
                                            &consumed, &error));
  ASSERT_EQ(2u, cmds.size());
  EXPECT_EQ((std::vector<std::string>{"PING"}), ArgsOf(cmds[0]));
  EXPECT_EQ((std::vector<std::string>{"SET", "key", "value"}),
            ArgsOf(cmds[1]));
}

TEST(RespParserTest, RejectsMalformedLengths) {
  const char* bad[] = {
      "*abc\r\n",                    // Non-numeric array length.
      "*-3\r\n",                     // Negative array length.
      "*2000000\r\n",                // Over the element cap.
      "*1\r\n$-5\r\n",               // Negative bulk length.
      "*1\r\n$xyz\r\n",              // Non-numeric bulk length.
      "*1\r\n$999999999999999\r\n",  // Oversized bulk length.
      "*1\r\nX3\r\nfoo\r\n",         // Missing '$'.
      "*1\r\n$3\r\nfooXY",           // Payload not CRLF-terminated.
  };
  for (const char* wire : bad) {
    std::vector<RespCommand> cmds;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseResult::kError,
              ParseRequests(wire, strlen(wire), &cmds, &consumed, &error))
        << wire;
    EXPECT_FALSE(error.empty()) << wire;
  }
}

TEST(RespParserTest, ReplyRoundTrip) {
  std::string wire;
  AppendArrayHeader(&wire, 3);
  AppendBulk(&wire, "hello");
  AppendNullBulk(&wire);
  AppendInteger(&wire, -42);

  RespValue v;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseResult::kOk,
            ParseReply(wire.data(), wire.size(), &v, &consumed, &error));
  EXPECT_EQ(wire.size(), consumed);
  ASSERT_EQ(RespType::kArray, v.type);
  ASSERT_EQ(3u, v.elements.size());
  EXPECT_EQ("hello", v.elements[0].str);
  EXPECT_TRUE(v.elements[1].IsNull());
  EXPECT_EQ(-42, v.elements[2].integer);

  // Partial replies request more bytes at every cut point.
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    RespValue partial;
    size_t c = 0;
    EXPECT_EQ(ParseResult::kNeedMore,
              ParseReply(wire.data(), cut, &partial, &c, &error))
        << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Live-server fixture.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(threading::ThreadMode mode = threading::ThreadMode::kElastic,
                   int shards = 4) {
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = shards;
    options.analytics = analytics_options_;
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);

    ServerOptions server_options;
    server_options.net.port = 0;  // Ephemeral.
    server_options.net.io_threads = io_threads_;
    server_options.net.so_reuseport = so_reuseport_;
    server_options.executor.mode = mode;
    server_options.executor.max_threads = 2;
    srv_ = std::make_unique<Server>(db_.get(), server_options);
    ASSERT_TRUE(srv_->Start().ok());
  }

  void TearDown() override {
    if (srv_ != nullptr) srv_->Stop();
  }

  Status Connect(Client* client) {
    return client->Connect("127.0.0.1", srv_->port());
  }

  std::unique_ptr<TierBase> db_;
  std::unique_ptr<Server> srv_;
  // Tweak before StartServer(); defaults match production.
  analytics::WorkloadAnalyticsOptions analytics_options_;
  int io_threads_ = 1;
  bool so_reuseport_ = false;
};

/// Raw socket for torture tests: write arbitrary bytes, read with timeout.
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{0, 500'000};  // 500 ms; torture cases may never reply.
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RawConn() { Close(); }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  bool Send(const std::string& bytes) {
    return send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// Reads until the peer closes or the timeout fires; returns all bytes.
  std::string ReadAll() {
    std::string out;
    char chunk[4096];
    for (;;) {
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }
  /// Reads until `bytes` bytes arrived (or timeout).
  std::string ReadN(size_t bytes) {
    std::string out;
    char chunk[4096];
    while (out.size() < bytes) {
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST_F(ServerTest, CommandMatrix) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  ASSERT_TRUE(client.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);
  ASSERT_TRUE(client.Call({"PING", "hello"}, &v).ok());
  EXPECT_EQ("hello", v.str);

  ASSERT_TRUE(client.Call({"SET", "k", "v1"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.Call({"GET", "k"}, &v).ok());
  EXPECT_EQ("v1", v.str);
  ASSERT_TRUE(client.Call({"GET", "nosuch"}, &v).ok());
  EXPECT_TRUE(v.IsNull());

  ASSERT_TRUE(client.Call({"EXISTS", "k", "nosuch", "k"}, &v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(client.Call({"DEL", "k", "nosuch"}, &v).ok());
  EXPECT_EQ(1, v.integer);

  ASSERT_TRUE(client.Call({"MSET", "a", "1", "b", "2"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.Call({"MGET", "a", "b", "nosuch"}, &v).ok());
  ASSERT_EQ(RespType::kArray, v.type);
  ASSERT_EQ(3u, v.elements.size());
  EXPECT_EQ("1", v.elements[0].str);
  EXPECT_EQ("2", v.elements[1].str);
  EXPECT_TRUE(v.elements[2].IsNull());

  ASSERT_TRUE(client.Call({"INCR", "counter"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(client.Call({"INCR", "counter"}, &v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(client.Call({"INCR", "a"}, &v).ok());
  EXPECT_EQ(2, v.integer);  // "1" + 1.
  ASSERT_TRUE(client.Call({"SET", "text", "abc"}, &v).ok());
  ASSERT_TRUE(client.Call({"INCR", "text"}, &v).ok());
  EXPECT_TRUE(v.IsError());

  ASSERT_TRUE(client.Call({"EXPIRE", "a", "100"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(client.Call({"TTL", "a"}, &v).ok());
  EXPECT_GE(v.integer, 99);
  EXPECT_LE(v.integer, 100);
  ASSERT_TRUE(client.Call({"TTL", "b"}, &v).ok());
  EXPECT_EQ(-1, v.integer);  // No expiry.
  ASSERT_TRUE(client.Call({"TTL", "nosuch"}, &v).ok());
  EXPECT_EQ(-2, v.integer);  // Missing.
  ASSERT_TRUE(client.Call({"EXPIRE", "nosuch", "10"}, &v).ok());
  EXPECT_EQ(0, v.integer);

  ASSERT_TRUE(client.Call({"HSET", "h", "f1", "v1", "f2", "v2"}, &v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(client.Call({"HSET", "h", "f1", "v1b"}, &v).ok());
  EXPECT_EQ(0, v.integer);  // Overwrite, not new.
  ASSERT_TRUE(client.Call({"HGET", "h", "f1"}, &v).ok());
  EXPECT_EQ("v1b", v.str);
  ASSERT_TRUE(client.Call({"HGET", "h", "nofield"}, &v).ok());
  EXPECT_TRUE(v.IsNull());

  ASSERT_TRUE(client.Call({"LPUSH", "l", "x", "y", "z"}, &v).ok());
  EXPECT_EQ(3, v.integer);
  ASSERT_TRUE(client.Call({"LRANGE", "l", "0", "-1"}, &v).ok());
  ASSERT_EQ(3u, v.elements.size());
  EXPECT_EQ("z", v.elements[0].str);  // LPUSH reverses.
  ASSERT_TRUE(client.Call({"LRANGE", "l", "1", "1"}, &v).ok());
  ASSERT_EQ(1u, v.elements.size());
  EXPECT_EQ("y", v.elements[0].str);

  ASSERT_TRUE(client.Call({"ZADD", "z", "2.5", "bob", "1", "alice"}, &v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(client.Call({"ZRANGE", "z", "0", "-1"}, &v).ok());
  ASSERT_EQ(2u, v.elements.size());
  EXPECT_EQ("alice", v.elements[0].str);
  EXPECT_EQ("bob", v.elements[1].str);
  ASSERT_TRUE(client.Call({"ZRANGE", "z", "-1", "-1", "WITHSCORES"}, &v).ok());
  ASSERT_EQ(2u, v.elements.size());
  EXPECT_EQ("bob", v.elements[0].str);
  EXPECT_EQ("2.5", v.elements[1].str);

  // Type confusion maps to WRONGTYPE, like Redis.
  ASSERT_TRUE(client.Call({"GET", "l"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("WRONGTYPE"));

  // Arity and unknown-command errors.
  ASSERT_TRUE(client.Call({"GET"}, &v).ok());
  EXPECT_TRUE(v.IsError());
  ASSERT_TRUE(client.Call({"NOSUCHCMD", "x"}, &v).ok());
  EXPECT_TRUE(v.IsError());

  // INFO surfaces the aggregated TierBase stats snapshot.
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  ASSERT_EQ(RespType::kBulkString, v.type);
  for (const char* field :
       {"keyspace_hits:", "keyspace_misses:", "evicted_keys:",
        "lru_touches:", "multi_shard_locks:", "bytes_cached:",
        "keys_cached:", "thread_mode:", "connected_clients:"}) {
    EXPECT_NE(std::string::npos, v.str.find(field)) << field;
  }
}

TEST_F(ServerTest, PipelinedGetsCoalesceIntoMultiGet) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client.Call({"SET", "key" + std::to_string(i), "value"}, &v).ok());
  }

  const uint64_t batches_before = db_->cache()->multi_batches();
  const uint64_t locks_before = db_->cache()->multi_shard_locks();

  // One write carries all 64 GETs; the event loop reads them together and
  // dispatches one batch, which the command table turns into one MultiGet.
  for (int i = 0; i < kKeys; ++i) {
    client.Append({"GET", "key" + std::to_string(i)});
  }
  ASSERT_TRUE(client.Flush().ok());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client.ReadReply(&v).ok());
    EXPECT_EQ("value", v.str) << i;
  }

  const uint64_t batches = db_->cache()->multi_batches() - batches_before;
  const uint64_t locks = db_->cache()->multi_shard_locks() - locks_before;
  EXPECT_GE(batches, 1u);  // The batch path ran...
  EXPECT_LT(locks, static_cast<uint64_t>(kKeys) / 2);  // ...amortized.
  // The loop observed genuinely pipelined dispatch (≥ 32 commands in one
  // batch — the acceptance bar; normally all 64 land together).
  EXPECT_GE(srv_->loop()->max_batch_commands(), 32u);
  EXPECT_GE(srv_->commands()->coalesced_commands(), 32u);
}

TEST_F(ServerTest, PipelinedSetsCoalesceIntoMultiSet) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  const uint64_t batches_before = db_->cache()->multi_batches();
  constexpr int kKeys = 48;
  for (int i = 0; i < kKeys; ++i) {
    client.Append({"SET", "sk" + std::to_string(i), "v"});
  }
  ASSERT_TRUE(client.Flush().ok());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(client.ReadReply(&v).ok());
    EXPECT_EQ("OK", v.str);
  }
  EXPECT_GE(db_->cache()->multi_batches(), batches_before + 1);
  std::string out;
  EXPECT_TRUE(db_->Get("sk47", &out).ok());
  EXPECT_EQ("v", out);
}

TEST_F(ServerTest, MixedPipelineKeepsReplyOrder) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());

  client.Append({"SET", "a", "1"});
  client.Append({"GET", "a"});
  client.Append({"INCR", "a"});
  client.Append({"BOGUS"});
  client.Append({"GET", "a"});
  client.Append({"PING"});
  ASSERT_TRUE(client.Flush().ok());

  RespValue v;
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_EQ("1", v.str);
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_TRUE(v.IsError());
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_EQ("2", v.str);
  ASSERT_TRUE(client.ReadReply(&v).ok());
  EXPECT_EQ("PONG", v.str);
}

TEST_F(ServerTest, ClientKilledMidFrameLeavesServerServing) {
  StartServer();

  Client healthy;
  ASSERT_TRUE(Connect(&healthy).ok());
  RespValue v;
  ASSERT_TRUE(healthy.Call({"SET", "stable", "yes"}, &v).ok());

  {
    // Dies mid-multibulk: announced three args, sent one and a half.
    RawConn dying;
    ASSERT_TRUE(dying.Connect(srv_->port()));
    ASSERT_TRUE(dying.Send("*3\r\n$3\r\nSET\r\n$4\r\nab"));
    dying.Close();
  }
  {
    // Dies mid-bulk-payload.
    RawConn dying;
    ASSERT_TRUE(dying.Connect(srv_->port()));
    ASSERT_TRUE(dying.Send("*2\r\n$3\r\nGET\r\n$100\r\npartial"));
    dying.Close();
  }

  // The surviving connection still works, and new ones are accepted.
  ASSERT_TRUE(healthy.Call({"GET", "stable"}, &v).ok());
  EXPECT_EQ("yes", v.str);
  Client fresh;
  ASSERT_TRUE(Connect(&fresh).ok());
  ASSERT_TRUE(fresh.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);
}

TEST_F(ServerTest, ProtocolTortureNeverCrashes) {
  StartServer();

  const std::string torture[] = {
      "*abc\r\n",                          // Garbage array length.
      "*-3\r\n",                           // Negative array length.
      "*1\r\n$-5\r\n",                     // Negative bulk length.
      "*1\r\n$999999999999999\r\n",        // Absurd bulk length.
      "*2\r\n$3\r\nGET\r\n$999999999\r\n"  // Oversized beyond cap.
      ,
      "*1\r\nnope\r\n",                    // Missing '$'.
      "*1\r\n$3\r\nfooXY",                 // Broken terminator.
      std::string("\x00\x01\xfe\xff\n", 5),  // Binary garbage, inline.
      "\r\n\r\n\r\n",                      // Empty inline spam.
  };
  for (const std::string& bytes : torture) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(srv_->port()));
    ASSERT_TRUE(conn.Send(bytes));
    // Either an -ERR reply followed by a close, or a clean close, or (for
    // inline no-ops) nothing; never a crash or a hang.
    std::string reply = conn.ReadAll();
    if (!reply.empty() && reply[0] == '-') {
      EXPECT_NE(std::string::npos, reply.find("ERR")) << bytes;
    }
  }

  // Wrong arity and unknown commands answer -ERR and keep the connection.
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(srv_->port()));
    ASSERT_TRUE(conn.Send("GET\r\n"));
    std::string reply = conn.ReadN(1);
    EXPECT_EQ("-", reply.substr(0, 1));
  }

  // After all that abuse the server still serves.
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);
  EXPECT_GE(srv_->loop()->protocol_errors(), 5u);
}

TEST_F(ServerTest, BlankLineKeepalivesAreDroppedNotBuffered) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(srv_->port()));
  // Keepalive spam followed by a real command must still be served (the
  // consumed blank-line bytes may not linger in the read buffer).
  ASSERT_TRUE(conn.Send("\r\n\r\n\r\n\r\nPING\r\n\r\n"));
  std::string reply = conn.ReadN(7);
  EXPECT_EQ("+PONG\r\n", reply);
}

TEST_F(ServerTest, PartialFramesAcrossManyWritesStillParse) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(srv_->port()));
  const std::string wire = "*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n";
  // Trickle the frame byte by byte.
  for (char c : wire) {
    ASSERT_TRUE(conn.Send(std::string(1, c)));
  }
  std::string reply = conn.ReadN(5);
  EXPECT_EQ("$-1\r\n", reply);  // Null bulk: key does not exist.
}

TEST_F(ServerTest, ThreadModeMatrix) {
  for (threading::ThreadMode mode :
       {threading::ThreadMode::kSingle, threading::ThreadMode::kMulti,
        threading::ThreadMode::kElastic}) {
    StartServer(mode);
    Client a, b;
    ASSERT_TRUE(Connect(&a).ok());
    ASSERT_TRUE(Connect(&b).ok());
    RespValue v;
    ASSERT_TRUE(a.Call({"SET", "m", "1"}, &v).ok());
    ASSERT_TRUE(b.Call({"GET", "m"}, &v).ok());
    EXPECT_EQ("1", v.str);
    srv_->Stop();
    srv_.reset();
    db_.reset();
  }
}

// ---------------------------------------------------------------------------
// Multi-reactor core: --io-threads shards with per-loop ownership.
// ---------------------------------------------------------------------------

// Every io-threads count × thread-mode combination serves the same traffic:
// pipelined trains still coalesce per loop, and the accept distribution
// spreads connections across every shard.
TEST_F(ServerTest, MultiLoopThreadModeMatrix) {
  for (int io_threads : {1, 2, 4}) {
    for (threading::ThreadMode mode :
         {threading::ThreadMode::kSingle, threading::ThreadMode::kElastic}) {
      io_threads_ = io_threads;
      StartServer(mode);
      ASSERT_EQ(io_threads, srv_->loop()->io_threads());

      // Twice as many clients as loops: round-robin assigns every loop at
      // least two connections.
      const int n_clients = io_threads * 2;
      std::vector<std::unique_ptr<Client>> clients;
      RespValue v;
      for (int c = 0; c < n_clients; ++c) {
        clients.push_back(std::make_unique<Client>());
        ASSERT_TRUE(Connect(clients.back().get()).ok());
        ASSERT_TRUE(clients.back()
                        ->Call({"SET", "k" + std::to_string(c),
                                "v" + std::to_string(c)},
                               &v)
                        .ok());
      }
      for (int c = 0; c < n_clients; ++c) {
        ASSERT_TRUE(clients[c]->Call({"GET", "k" + std::to_string(c)}, &v)
                        .ok());
        EXPECT_EQ("v" + std::to_string(c), v.str);
      }

      // Pipelined coalescing works on whichever loop owns the connection.
      for (int i = 0; i < 32; ++i) clients[0]->Append({"GET", "k0"});
      ASSERT_TRUE(clients[0]->Flush().ok());
      for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(clients[0]->ReadReply(&v).ok());
        EXPECT_EQ("v0", v.str);
      }

      // Per-loop ownership accounting: the shard gauges cover every
      // connection exactly once, and round-robin touched every loop. (The
      // hand-off to a sibling loop is asynchronous; wait for adoption.)
      EventLoop* loop = srv_->loop();
      for (int spin = 0; spin < 1000; ++spin) {
        if (loop->connections_accepted() >=
            static_cast<uint64_t>(n_clients)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      uint64_t assigned = 0;
      for (size_t s = 0; s < loop->shard_count(); ++s) {
        EXPECT_GE(loop->shard(s)->connections_assigned(), 2u)
            << "loop " << s << " with io_threads " << io_threads;
        assigned += loop->shard(s)->connections_assigned();
      }
      EXPECT_EQ(assigned, loop->connections_accepted());

      srv_->Stop();
      srv_.reset();
      db_.reset();
    }
  }
}

// SO_REUSEPORT per-loop listeners serve the same traffic as
// accept-distribute.
TEST_F(ServerTest, ReuseportListenersServeEveryLoop) {
  io_threads_ = 2;
  so_reuseport_ = true;
  StartServer();
  std::vector<std::unique_ptr<Client>> clients;
  RespValue v;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(Connect(clients.back().get()).ok());
    ASSERT_TRUE(
        clients.back()->Call({"SET", "rk" + std::to_string(c), "x"}, &v).ok());
  }
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(clients[c]->Call({"GET", "rk" + std::to_string(c)}, &v).ok());
    EXPECT_EQ("x", v.str);
  }
}

// The YCSB acceptance bar holds with two loops: remote op counts match
// in-process execution exactly.
TEST_F(ServerTest, MultiLoopYcsbRemoteMatchesInProcess) {
  io_threads_ = 2;
  StartServer();
  auto remote = RemoteEngine::Connect("127.0.0.1", srv_->port());
  ASSERT_TRUE(remote.ok());

  for (char name : {'A', 'C'}) {
    workload::YcsbOptions options;
    ASSERT_TRUE(workload::WorkloadByName(name, &options));
    options.record_count = 300;
    options.operation_count = 400;
    options.dataset.num_records = 300;

    workload::RunnerOptions runner;
    runner.threads = 1;
    runner.batch_size = (name == 'A') ? 8 : 1;

    TierBaseOptions local_options;
    local_options.cache.shards = 4;
    auto local = TierBase::Open(local_options, nullptr);
    ASSERT_TRUE(local.ok());
    workload::RunResult local_load =
        workload::RunLoadPhase(local->get(), options, runner);
    workload::RunResult local_run =
        workload::RunPhase(local->get(), options, runner);

    workload::RunResult remote_load =
        workload::RunLoadPhase(remote->get(), options, runner);
    workload::RunResult remote_run =
        workload::RunPhase(remote->get(), options, runner);

    EXPECT_EQ(local_load.ops, remote_load.ops) << "workload " << name;
    EXPECT_EQ(local_run.ops, remote_run.ops) << "workload " << name;
    EXPECT_EQ(0u, remote_load.errors) << "workload " << name;
    EXPECT_EQ(0u, remote_run.errors) << "workload " << name;
  }
}

// A client dying mid-frame on a NON-acceptor loop must not disturb its
// siblings: loop 1 owns the dying socket (round-robin: second accept),
// loop 0 keeps serving the healthy one.
TEST_F(ServerTest, ClientKilledMidFrameOnNonAcceptorLoop) {
  io_threads_ = 2;
  StartServer();

  Client healthy;  // First accept -> loop 0 (the acceptor's own loop).
  ASSERT_TRUE(Connect(&healthy).ok());
  RespValue v;
  ASSERT_TRUE(healthy.Call({"SET", "stable", "yes"}, &v).ok());

  {
    // Second accept -> loop 1. Wait for the cross-loop adoption, then die
    // mid-multibulk with the frame half-sent.
    RawConn dying;
    ASSERT_TRUE(dying.Connect(srv_->port()));
    for (int spin = 0; spin < 1000; ++spin) {
      if (srv_->loop()->shard(1)->connections_assigned() >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(srv_->loop()->shard(1)->connections_assigned(), 1u);
    ASSERT_TRUE(dying.Send("*3\r\n$3\r\nSET\r\n$4\r\nab"));
    dying.Close();
  }

  // Loop 0's connection is untouched, and fresh accepts still distribute.
  ASSERT_TRUE(healthy.Call({"GET", "stable"}, &v).ok());
  EXPECT_EQ("yes", v.str);
  Client fresh;
  ASSERT_TRUE(Connect(&fresh).ok());
  ASSERT_TRUE(fresh.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);

  // Loop 1 eventually notices the hangup and releases the connection.
  for (int spin = 0; spin < 1000; ++spin) {
    if (srv_->loop()->shard(1)->connections_active() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(0u, srv_->loop()->shard(1)->connections_active());
}

// SHUTDOWN must quiesce EVERY loop: with pipelined batches in flight on
// all four shards, the drain flushes each loop's replies before Run()
// returns.
TEST_F(ServerTest, ShutdownDrainsPipelinedClientsOnEveryLoop) {
  io_threads_ = 4;
  StartServer();

  constexpr int kClients = 8;  // Two per loop under round-robin.
  constexpr int kPings = 100;
  std::string train;
  for (int i = 0; i < kPings; ++i) train += "*1\r\n$4\r\nPING\r\n";

  std::vector<std::unique_ptr<RawConn>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<RawConn>());
    ASSERT_TRUE(conns.back()->Connect(srv_->port()));
    ASSERT_TRUE(conns.back()->Send(train));  // Pipelined, replies unread.
  }

  // Wait until every loop owns its connections and has dispatched work,
  // so the SHUTDOWN drain genuinely has in-flight state on all shards.
  EventLoop* loop = srv_->loop();
  for (int spin = 0; spin < 2000; ++spin) {
    if (loop->connections_accepted() >= kClients &&
        loop->batches_dispatched() >= kClients) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (size_t s = 0; s < loop->shard_count(); ++s) {
    EXPECT_GE(loop->shard(s)->connections_assigned(), 2u) << "loop " << s;
  }

  Client shutter;
  ASSERT_TRUE(Connect(&shutter).ok());
  RespValue v;
  ASSERT_TRUE(shutter.Call({"SHUTDOWN"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  srv_->Wait();

  // The drain flushed every loop's pending replies before closing: all
  // eight clients hold their full reply trains.
  const std::string expect_one = "+PONG\r\n";
  for (int c = 0; c < kClients; ++c) {
    std::string replies = conns[c]->ReadAll();
    EXPECT_EQ(expect_one.size() * kPings, replies.size()) << "client " << c;
    for (size_t off = 0; off + expect_one.size() <= replies.size();
         off += expect_one.size()) {
      ASSERT_EQ(expect_one, replies.substr(off, expect_one.size()))
          << "client " << c << " offset " << off;
    }
  }
  EXPECT_GE(loop->commands_dispatched(),
            static_cast<uint64_t>(kClients * kPings));
}

// INFO "# Server" carries the per-loop breakdown the observability
// satellite promises: connected_clients_loop<i>, accepts_loop<i>,
// loop_wakeups_loop<i>, plus io_threads/io_backend.
TEST_F(ServerTest, InfoReportsPerLoopBreakdown) {
  io_threads_ = 2;
  StartServer();
  std::vector<std::unique_ptr<Client>> clients;
  RespValue v;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(Connect(clients.back().get()).ok());
    ASSERT_TRUE(clients.back()->Call({"PING"}, &v).ok());
  }
  for (int spin = 0; spin < 1000; ++spin) {
    if (srv_->loop()->connections_accepted() >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(clients[0]->Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("io_threads:2")) << v.str;
  EXPECT_NE(std::string::npos, v.str.find("io_backend:")) << v.str;
  EXPECT_NE(std::string::npos, v.str.find("connected_clients_loop0:"))
      << v.str;
  EXPECT_NE(std::string::npos, v.str.find("connected_clients_loop1:"))
      << v.str;
  EXPECT_NE(std::string::npos, v.str.find("accepts_loop0:2")) << v.str;
  EXPECT_NE(std::string::npos, v.str.find("accepts_loop1:2")) << v.str;
  EXPECT_NE(std::string::npos, v.str.find("loop_wakeups_loop0:")) << v.str;
  EXPECT_NE(std::string::npos, v.str.find("loop_wakeups_loop1:")) << v.str;
}

TEST_F(ServerTest, ShutdownCommandStopsServer) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "k", "v"}, &v).ok());
  ASSERT_TRUE(client.Call({"SHUTDOWN"}, &v).ok());
  EXPECT_EQ("OK", v.str);

  srv_->Wait();  // Loop exits on its own.
  Client late;
  EXPECT_FALSE(Connect(&late).ok());
}

// A polite SHUTDOWN must drain the write-back tier before the event loop
// exits: dirty acknowledged entries land in storage, never in the void.
TEST_F(ServerTest, ShutdownDrainsWriteBackTier) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  // Neither interval nor threshold ever triggers on its own: every entry
  // stays dirty until something explicitly drains.
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  ServerOptions server_options;
  server_options.net.port = 0;
  srv_ = std::make_unique<Server>(db_.get(), server_options);
  ASSERT_TRUE(srv_->Start().ok());

  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        client.Call({"SET", "dirty" + std::to_string(i), "v"}, &v).ok());
  }
  EXPECT_EQ(db_->GetStats().write_back_dirty, 32u);  // All unflushed.
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  EXPECT_NE(v.str.find("# Persistence"), std::string::npos);
  EXPECT_NE(v.str.find("wb_dirty:32"), std::string::npos);
  for (const char* field :
       {"wb_oldest_dirty_age_us:", "deferred_fetch_batches:0",
        "deferred_fetch_shared:0", "evict_pinned_skips:0"}) {
    EXPECT_NE(v.str.find(field), std::string::npos) << field;
  }

  ASSERT_TRUE(client.Call({"SHUTDOWN"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  srv_->Wait();
  srv_->Stop();
  EXPECT_EQ(storage.size(), 32u);  // Drained, not dropped.
  EXPECT_EQ(db_->GetStats().write_back_dirty, 0u);
  // Tear down before `storage` (a test-body local) goes out of scope.
  srv_.reset();
  db_.reset();
}

// DEL counts what a read would see, including the unflushed write-back
// dirty buffer: a second DEL of a key whose tombstone has not flushed
// answers 0, and a dirty value without a cache copy counts.
TEST_F(ServerTest, DelCountsThroughTheWriteBackDirtyBuffer) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  ServerOptions server_options;
  server_options.net.port = 0;
  srv_ = std::make_unique<Server>(db_.get(), server_options);
  ASSERT_TRUE(srv_->Start().ok());

  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "k", "v"}, &v).ok());
  ASSERT_TRUE(db_->WaitIdle().ok());  // "k" is in storage and the cache.
  ASSERT_TRUE(client.Call({"DEL", "k"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(client.Call({"DEL", "k"}, &v).ok());  // Tombstone unflushed.
  EXPECT_EQ(0, v.integer);

  ASSERT_TRUE(client.Call({"SET", "d", "v"}, &v).ok());  // Dirty only...
  ASSERT_TRUE(db_->cache()->Delete("d").ok());            // ...no copy.
  ASSERT_TRUE(client.Call({"DEL", "d", "never-set"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  EXPECT_EQ(db_->GetStats().storage_populates, 0u);  // Counting fills none.

  ASSERT_TRUE(client.Call({"SHUTDOWN"}, &v).ok());
  srv_->Wait();
  srv_->Stop();
  EXPECT_EQ(storage.size(), 0u);  // Both tombstones flushed.
  srv_.reset();
  db_.reset();
}

// SHUTDOWN with a broken storage tier refuses to lose the dirty entries;
// SHUTDOWN NOSAVE overrides.
TEST_F(ServerTest, ShutdownAbortsWhenFlushFailsUnlessNosave) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 1;  // Storage is down for good.
  MockStorageAdapter storage(mock_options);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  options.write_back.retry_backoff_micros = 200;
  options.write_back.retry_backoff_max_micros = 1'000;
  options.write_back.max_flush_failures = 3;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  ServerOptions server_options;
  server_options.net.port = 0;
  srv_ = std::make_unique<Server>(db_.get(), server_options);
  ASSERT_TRUE(srv_->Start().ok());

  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "k", "v"}, &v).ok());  // Acked: dirty.
  ASSERT_TRUE(client.Call({"SHUTDOWN"}, &v).ok());
  EXPECT_TRUE(v.IsError()) << v.str;  // Refused: the flush failed.
  ASSERT_TRUE(client.Call({"PING"}, &v).ok());  // Still serving.
  EXPECT_EQ("PONG", v.str);

  ASSERT_TRUE(client.Call({"SHUTDOWN", "NOSAVE"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  srv_->Wait();
  srv_->Stop();
  srv_.reset();
  db_.reset();
}

TEST_F(ServerTest, RemoteEngineBasics) {
  StartServer();
  auto remote = RemoteEngine::Connect("127.0.0.1", srv_->port());
  ASSERT_TRUE(remote.ok());
  KvEngine* engine = remote->get();

  ASSERT_TRUE(engine->Set("rk", "rv").ok());
  std::string out;
  ASSERT_TRUE(engine->Get("rk", &out).ok());
  EXPECT_EQ("rv", out);
  EXPECT_TRUE(engine->Get("nosuch", &out).IsNotFound());
  ASSERT_TRUE(engine->Delete("rk").ok());
  EXPECT_TRUE(engine->Get("rk", &out).IsNotFound());

  std::vector<Slice> keys = {"x", "y", "z"};
  std::vector<Slice> values = {"1", "2", "3"};
  std::vector<Status> statuses;
  engine->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok());
  std::vector<std::string> fetched;
  std::vector<Slice> read_keys = {"x", "nosuch", "z"};
  engine->MultiGet(read_keys, &fetched, &statuses);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ("1", fetched[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ("3", fetched[2]);

  // GetUsage round-trips the INFO snapshot.
  UsageStats usage = engine->GetUsage();
  EXPECT_GT(usage.memory_bytes, 0u);
  EXPECT_GT(usage.keys, 0u);
}

// The acceptance bar: YCSB workloads A-F complete over loopback with the
// same op counts as in-process execution.
TEST_F(ServerTest, YcsbWorkloadsRemoteMatchInProcess) {
  StartServer();
  auto remote = RemoteEngine::Connect("127.0.0.1", srv_->port());
  ASSERT_TRUE(remote.ok());

  for (char name : {'A', 'B', 'C', 'D', 'E', 'F'}) {
    workload::YcsbOptions options;
    ASSERT_TRUE(workload::WorkloadByName(name, &options));
    options.record_count = 300;
    options.operation_count = 400;
    options.dataset.num_records = 300;

    workload::RunnerOptions runner;
    runner.threads = 1;
    runner.batch_size = (name == 'A') ? 8 : 1;  // Exercise MGET/MSET too.

    // In-process reference.
    TierBaseOptions local_options;
    local_options.cache.shards = 4;
    auto local = TierBase::Open(local_options, nullptr);
    ASSERT_TRUE(local.ok());
    workload::RunResult local_load =
        workload::RunLoadPhase(local->get(), options, runner);
    workload::RunResult local_run =
        workload::RunPhase(local->get(), options, runner);

    // Remote over loopback.
    workload::RunResult remote_load =
        workload::RunLoadPhase(remote->get(), options, runner);
    workload::RunResult remote_run =
        workload::RunPhase(remote->get(), options, runner);

    EXPECT_EQ(local_load.ops, remote_load.ops) << "workload " << name;
    EXPECT_EQ(local_run.ops, remote_run.ops) << "workload " << name;
    EXPECT_EQ(0u, remote_load.errors) << "workload " << name;
    EXPECT_EQ(0u, remote_run.errors) << "workload " << name;
    EXPECT_EQ(options.operation_count, remote_run.ops);
  }
}

TEST_F(ServerTest, ConcurrentClientsInterleave) {
  StartServer(threading::ThreadMode::kMulti);
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", srv_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      RespValue v;
      for (int i = 0; i < kOpsPerClient; ++i) {
        std::string key = "c" + std::to_string(t) + ":" + std::to_string(i);
        if (!client.Call({"SET", key, "x"}, &v).ok() || v.str != "OK") {
          failures.fetch_add(1);
          return;
        }
        if (!client.Call({"GET", key}, &v).ok() || v.str != "x") {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(static_cast<uint64_t>(kClients * kOpsPerClient),
            db_->GetStats().sets);
}

TEST_F(ServerTest, ScanDbSizeFlushAll) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  ASSERT_TRUE(client.Call({"DBSIZE"}, &v).ok());
  EXPECT_EQ(0, v.integer);

  const int kKeys = 137;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client.Call({"SET", "s" + std::to_string(i), "v"}, &v).ok());
  }
  ASSERT_TRUE(client.Call({"HSET", "h1", "f", "v"}, &v).ok());
  ASSERT_TRUE(client.Call({"DBSIZE"}, &v).ok());
  EXPECT_EQ(kKeys + 1, v.integer);

  // A full cursor walk visits every key exactly once (stable keyspace).
  std::set<std::string> seen;
  std::string cursor = "0";
  int pages = 0;
  do {
    ASSERT_TRUE(client.Call({"SCAN", cursor, "COUNT", "20"}, &v).ok());
    ASSERT_EQ(RespValue::Type::kArray, v.type);
    ASSERT_EQ(2u, v.elements.size());
    cursor = v.elements[0].str;
    for (const RespValue& key : v.elements[1].elements) {
      EXPECT_TRUE(seen.insert(key.str).second) << "duplicate " << key.str;
    }
    ASSERT_LT(++pages, 200);
  } while (cursor != "0");
  EXPECT_EQ(static_cast<size_t>(kKeys + 1), seen.size());
  EXPECT_TRUE(seen.count("h1"));

  // Cursor/syntax validation.
  ASSERT_TRUE(client.Call({"SCAN", "notanumber"}, &v).ok());
  EXPECT_TRUE(v.IsError());
  ASSERT_TRUE(client.Call({"SCAN", "0", "MATCH", "x*"}, &v).ok());
  EXPECT_TRUE(v.IsError());

  ASSERT_TRUE(client.Call({"FLUSHALL"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.Call({"DBSIZE"}, &v).ok());
  EXPECT_EQ(0, v.integer);
  ASSERT_TRUE(client.Call({"GET", "s0"}, &v).ok());
  EXPECT_TRUE(v.IsNull());
  ASSERT_TRUE(client.Call({"SCAN", "0", "COUNT", "100"}, &v).ok());
  EXPECT_TRUE(v.elements[1].elements.empty());
}

// ---------------------------------------------------------------------------
// Telemetry: INFO structure, SLOWLOG, LATENCY, PERF, METRICS.
// ---------------------------------------------------------------------------

/// Parses an INFO body into section -> key -> value.
std::map<std::string, std::map<std::string, std::string>> ParseInfo(
    const std::string& body) {
  std::map<std::string, std::map<std::string, std::string>> out;
  std::string section;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      section = line.substr(line.find_first_not_of("# "));
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    out[section][line.substr(0, colon)] = line.substr(colon + 1);
  }
  return out;
}

TEST_F(ServerTest, InfoParsesWithAdvertisedCountersMonotonic) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  ASSERT_EQ(RespType::kBulkString, v.type);
  auto info = ParseInfo(v.str);

  // Every advertised section parses out, with its headline keys.
  for (const char* section : {"Server", "Cluster", "Stats", "Commandstats",
                              "Persistence", "Memory", "Keyspace",
                              "Robustness"}) {
    EXPECT_TRUE(info.count(section)) << "missing section " << section;
  }
  for (const char* key :
       {"total_commands_processed", "dispatch_batches", "command_errors",
        "keyspace_hits", "keyspace_misses", "gets", "sets"}) {
    ASSERT_TRUE(info["Stats"].count(key)) << key;
  }
  EXPECT_TRUE(info["Server"].count("thread_mode"));
  EXPECT_TRUE(info["Server"].count("telemetry"));
  EXPECT_TRUE(info["Memory"].count("bytes_cached"));
  EXPECT_TRUE(info["Keyspace"].count("keys_cached"));
  EXPECT_TRUE(info["Keyspace"].count("slowlog_len"));
  EXPECT_TRUE(info["Commandstats"].count("cmd_get_latency_us"));
  EXPECT_TRUE(info["Cluster"].count("cluster_enabled"));

  const uint64_t commands_before =
      std::stoull(info["Stats"]["total_commands_processed"]);
  const uint64_t gets_before = std::stoull(info["Stats"]["gets"]);

  ASSERT_TRUE(client.Call({"SET", "mono", "v"}, &v).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call({"GET", "mono"}, &v).ok());
  }
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  auto after = ParseInfo(v.str);
  // Counters only move forward, and by at least the traffic we sent.
  EXPECT_GE(std::stoull(after["Stats"]["total_commands_processed"]),
            commands_before + 7);  // SET + 5 GETs + the first INFO.
  EXPECT_GE(std::stoull(after["Stats"]["gets"]), gets_before + 5);
  EXPECT_GE(std::stoull(after["Stats"]["keyspace_hits"]), 5u);
}

TEST_F(ServerTest, SlowlogRedactsArgsToKeys) {
  StartServer();
  srv_->commands()->slowlog()->set_threshold_micros(0);  // Log everything.
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "k", "secretvalue"}, &v).ok());
  ASSERT_TRUE(client.Call({"MSET", "a", "hush1", "b", "hush2"}, &v).ok());
  ASSERT_TRUE(client.Call({"DEL", "a", "b"}, &v).ok());
  // Stop logging before inspecting, so the SLOWLOG commands themselves
  // stay out of the ring.
  srv_->commands()->slowlog()->set_threshold_micros(-1);

  ASSERT_TRUE(client.Call({"SLOWLOG", "GET", "25"}, &v).ok());
  ASSERT_EQ(RespType::kArray, v.type);
  ASSERT_GE(v.elements.size(), 3u);
  std::map<std::string, std::vector<std::string>> by_name;
  int64_t prev_id = -1;
  for (const RespValue& e : v.elements) {
    ASSERT_EQ(RespType::kArray, e.type);
    ASSERT_EQ(4u, e.elements.size());
    // Newest first, ids strictly decreasing.
    if (prev_id >= 0) {
      EXPECT_LT(e.elements[0].integer, prev_id);
    }
    prev_id = e.elements[0].integer;
    EXPECT_GT(e.elements[1].integer, 0);  // Unix timestamp.
    std::vector<std::string> args;
    for (const RespValue& a : e.elements[3].elements) {
      args.push_back(a.str);
      // No values ever reach the log — keys and command names only.
      EXPECT_EQ(std::string::npos, a.str.find("secret"));
      EXPECT_EQ(std::string::npos, a.str.find("hush"));
    }
    ASSERT_FALSE(args.empty());
    by_name[args[0]] = args;
  }
  EXPECT_EQ((std::vector<std::string>{"SET", "k"}), by_name["SET"]);
  EXPECT_EQ((std::vector<std::string>{"MSET", "a", "b"}), by_name["MSET"]);
  EXPECT_EQ((std::vector<std::string>{"DEL", "a", "b"}), by_name["DEL"]);
}

TEST_F(ServerTest, SlowlogWraparoundThresholdAndIds) {
  StartServer();
  SlowLog* log = srv_->commands()->slowlog();
  log->set_capacity(4);
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  // Nothing logs under an unreachable threshold.
  log->set_threshold_micros(10'000'000);
  ASSERT_TRUE(client.Call({"SET", "cold", "v"}, &v).ok());
  ASSERT_TRUE(client.Call({"SLOWLOG", "LEN"}, &v).ok());
  EXPECT_EQ(0, v.integer);

  // Ten commands through a 4-entry ring keep the newest four.
  log->set_threshold_micros(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        client.Call({"SET", "w" + std::to_string(i), "v"}, &v).ok());
  }
  log->set_threshold_micros(-1);
  ASSERT_TRUE(client.Call({"SLOWLOG", "LEN"}, &v).ok());
  EXPECT_EQ(4, v.integer);
  ASSERT_TRUE(client.Call({"SLOWLOG", "GET", "10"}, &v).ok());
  ASSERT_EQ(4u, v.elements.size());
  EXPECT_EQ("w9", v.elements[0].elements[3].elements[1].str);
  EXPECT_EQ("w6", v.elements[3].elements[3].elements[1].str);
  const int64_t max_id = v.elements[0].elements[0].integer;

  // RESET empties the ring but ids keep climbing (Redis semantics).
  ASSERT_TRUE(client.Call({"SLOWLOG", "RESET"}, &v).ok());
  ASSERT_TRUE(client.Call({"SLOWLOG", "LEN"}, &v).ok());
  EXPECT_EQ(0, v.integer);
  log->set_threshold_micros(0);
  ASSERT_TRUE(client.Call({"SET", "fresh", "v"}, &v).ok());
  log->set_threshold_micros(-1);
  ASSERT_TRUE(client.Call({"SLOWLOG", "GET", "1"}, &v).ok());
  ASSERT_EQ(1u, v.elements.size());
  EXPECT_GT(v.elements[0].elements[0].integer, max_id);

  // A wide multi-key command redacts past 8 keys with a summary tail.
  log->set_threshold_micros(0);
  std::vector<Slice> del{"DEL"};
  std::vector<std::string> storage;
  for (int i = 0; i < 12; ++i) storage.push_back("d" + std::to_string(i));
  for (const std::string& k : storage) del.emplace_back(k);
  ASSERT_TRUE(client.Call(del, &v).ok());
  log->set_threshold_micros(-1);
  ASSERT_TRUE(client.Call({"SLOWLOG", "GET", "1"}, &v).ok());
  ASSERT_EQ(1u, v.elements.size());
  const RespValue& args = v.elements[0].elements[3];
  ASSERT_EQ(10u, args.elements.size());  // name + 8 keys + summary.
  EXPECT_EQ("DEL", args.elements[0].str);
  EXPECT_EQ("d0", args.elements[1].str);
  EXPECT_EQ("d7", args.elements[8].str);
  EXPECT_EQ("... (4 more keys)", args.elements[9].str);
}

TEST_F(ServerTest, LatencyHistogramAndResetOverWire) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call({"GET", "nosuch"}, &v).ok());
  }
  ASSERT_TRUE(client.Call({"LATENCY", "HISTOGRAM", "get"}, &v).ok());
  ASSERT_EQ(RespType::kArray, v.type);
  ASSERT_EQ(2u, v.elements.size());
  EXPECT_EQ("cmd_get_latency_us", v.elements[0].str);
  EXPECT_EQ(0u, v.elements[1].str.find("cnt=10,p50="));

  // The full listing covers every command family plus the other-bucket.
  ASSERT_TRUE(client.Call({"LATENCY", "HISTOGRAM"}, &v).ok());
  ASSERT_GE(v.elements.size(), 2u * 25);
  bool saw_other = false;
  for (size_t i = 0; i < v.elements.size(); i += 2) {
    if (v.elements[i].str == "cmd_other_latency_us") saw_other = true;
  }
  EXPECT_TRUE(saw_other);

  ASSERT_TRUE(client.Call({"LATENCY", "RESET", "get"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(client.Call({"LATENCY", "HISTOGRAM", "get"}, &v).ok());
  EXPECT_EQ(0u, v.elements[1].str.find("cnt=0,"));
  ASSERT_TRUE(client.Call({"LATENCY", "HISTOGRAM", "nosuchcmd"}, &v).ok());
  EXPECT_TRUE(v.IsError());
}

TEST_F(ServerTest, MetricsCountsMatchOps) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "m", "v"}, &v).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call({"GET", "m"}, &v).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call({"SET", "m", "v2"}, &v).ok());
  }
  ASSERT_TRUE(client.Call({"METRICS"}, &v).ok());
  ASSERT_EQ(RespType::kBulkString, v.type);
  const std::string& prom = v.str;

  auto sample = [&prom](const std::string& name) -> uint64_t {
    const std::string needle = name + " ";
    size_t pos = 0;
    while ((pos = prom.find(needle, pos)) != std::string::npos) {
      if (pos == 0 || prom[pos - 1] == '\n') {
        return std::stoull(prom.substr(pos + needle.size()));
      }
      pos += needle.size();
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0;
  };
  // Histogram counts account for exactly the commands sent: the METRICS
  // command itself is still executing, so it is counted in the command
  // counter but not yet in its own histogram.
  EXPECT_EQ(10u, sample("tierbase_cmd_get_latency_us_count"));
  EXPECT_EQ(5u, sample("tierbase_cmd_set_latency_us_count"));
  EXPECT_EQ(10u,
            sample("tierbase_cmd_get_latency_us_bucket{le=\"+Inf\"}"));
  EXPECT_EQ(16u, sample("tierbase_total_commands_processed"));
  EXPECT_NE(std::string::npos,
            prom.find("# TYPE tierbase_cmd_get_latency_us histogram\n"));
  EXPECT_NE(std::string::npos,
            prom.find("# TYPE tierbase_total_commands_processed counter\n"));
}

TEST_F(ServerTest, PerfTracingStageSumWithinWall) {
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  ASSERT_TRUE(client.Call({"SET", "p", "v"}, &v).ok());
  ASSERT_TRUE(client.Call({"PERF", "ON"}, &v).ok());
  EXPECT_EQ("OK", v.str);

  // One pipelined batch: 64 GETs coalesce into a MultiGet train, 64 SETs
  // into a MultiSet train — both under the connection's PerfContext.
  for (int i = 0; i < 64; ++i) client.Append({"GET", "p"});
  for (int i = 0; i < 64; ++i) client.Append({"SET", "p", "v"});
  ASSERT_TRUE(client.Flush().ok());
  for (int i = 0; i < 128; ++i) ASSERT_TRUE(client.ReadReply(&v).ok());

  // OFF before GET so the report covers only completed batches — an
  // in-flight traced batch has its parse/queue stages recorded before
  // its wall time lands, which would blur the stage-sum invariant.
  ASSERT_TRUE(client.Call({"PERF", "OFF"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.Call({"PERF", "GET"}, &v).ok());
  ASSERT_EQ(RespType::kBulkString, v.type);
  auto report = ParseInfo(v.str)[""];
  ASSERT_TRUE(report.count("stage_sum_micros"));
  ASSERT_TRUE(report.count("wall_micros"));
  const uint64_t stage_sum = std::stoull(report["stage_sum_micros"]);
  const uint64_t wall = std::stoull(report["wall_micros"]);
  // Stages partition batch wall time: their sum can never exceed it (the
  // slack is untracked execution), and the traced batches must have
  // touched the cache.
  EXPECT_LE(stage_sum, wall);
  EXPECT_GT(wall, 0u);
  // 128 pipelined + the PERF OFF command; the pipelined flush usually
  // lands as one batch but TCP may split it, so only bound the count.
  EXPECT_EQ("129", report["commands"]);
  EXPECT_GE(std::stoull(report["batches"]), 2u);
  EXPECT_GE(std::stoull(report["cache_probe_calls"]), 1u);

  // Bad subcommands error without touching the tracing state.
  ASSERT_TRUE(client.Call({"PERF", "BOGUS"}, &v).ok());
  EXPECT_TRUE(v.IsError());
}

TEST_F(ServerTest, TelemetryDisabledKeepsServing) {
  StartServer();
  srv_->commands()->set_telemetry_enabled(false);
  srv_->commands()->slowlog()->set_threshold_micros(0);
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Call({"SET", "t" + std::to_string(i), "v"}, &v).ok());
  }
  // No clocking: histograms stay empty and nothing reaches the slow log,
  // but INFO/METRICS/LATENCY still render.
  ASSERT_TRUE(client.Call({"LATENCY", "HISTOGRAM", "set"}, &v).ok());
  EXPECT_EQ(0u, v.elements[1].str.find("cnt=0,"));
  ASSERT_TRUE(client.Call({"SLOWLOG", "LEN"}, &v).ok());
  EXPECT_EQ(0, v.integer);
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  auto info = ParseInfo(v.str);
  EXPECT_EQ("off", info["Server"]["telemetry"]);
  // Command counting is not gated on telemetry: 8 SETs + LATENCY +
  // SLOWLOG + this INFO (counted at batch start) = 11.
  EXPECT_EQ("11", info["Stats"]["total_commands_processed"]);
  ASSERT_TRUE(client.Call({"METRICS"}, &v).ok());
  EXPECT_NE(std::string::npos,
            v.str.find("tierbase_cmd_set_latency_us_count 0\n"));
}

TEST_F(ServerTest, AnalyticsAndHotKeysOverWire) {
  // Exact sampling so a short test workload lands deterministically in
  // both the reuse trackers and the hot-key sketch.
  analytics_options_.mrc_sample_rate = 1;
  analytics_options_.hotkey_sample_rate = 1;
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;

  // Skewed traffic: "hot" gets 40 accesses, 16 cold keys get 2 each.
  ASSERT_TRUE(client.Call({"SET", "hot", "v"}, &v).ok());
  for (int i = 0; i < 16; ++i) {
    const std::string key = "cold" + std::to_string(i);
    ASSERT_TRUE(client.Call({"SET", key, "v"}, &v).ok());
    ASSERT_TRUE(client.Call({"GET", key}, &v).ok());
  }
  for (int i = 0; i < 39; ++i) {
    ASSERT_TRUE(client.Call({"GET", "hot"}, &v).ok());
  }

  // HOTKEYS: flat [key, count] pairs, hottest first.
  ASSERT_TRUE(client.Call({"HOTKEYS", "3"}, &v).ok());
  ASSERT_EQ(RespType::kArray, v.type);
  ASSERT_EQ(6u, v.elements.size());
  EXPECT_EQ("hot", v.elements[0].str);
  EXPECT_EQ(40, v.elements[1].integer);
  ASSERT_TRUE(client.Call({"HOTKEYS", "0"}, &v).ok());
  EXPECT_TRUE(v.IsError());

  // ANALYTICS MRC: self-describing report; at rate 1 the curve is exact,
  // so the 40x re-read of "hot" must show up as short-distance hits.
  ASSERT_TRUE(client.Call({"ANALYTICS", "MRC"}, &v).ok());
  ASSERT_EQ(RespType::kBulkString, v.type);
  auto report = ParseInfo(v.str)[""];
  EXPECT_EQ("1", report["sample_rate"]);
  EXPECT_EQ("4", report["shards"]);
  EXPECT_EQ("17", report["tracked_keys"]);
  // 72 engine accesses: 17 SETs + 16 cold GETs + 39 hot GETs.
  EXPECT_EQ("72", report["total_accesses"]);
  EXPECT_GE(std::stoull(report["points"]), 1u);

  // Per-shard curves exist for every shard; out of range errors.
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        client.Call({"ANALYTICS", "MRC", std::to_string(s)}, &v).ok());
    EXPECT_EQ(RespType::kBulkString, v.type) << "shard " << s;
  }
  ASSERT_TRUE(client.Call({"ANALYTICS", "MRC", "4"}, &v).ok());
  EXPECT_TRUE(v.IsError());
  ASSERT_TRUE(client.Call({"ANALYTICS", "BOGUS"}, &v).ok());
  EXPECT_TRUE(v.IsError());

  // INFO carries the "# Workload" section with the inline hot keys.
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  auto info = ParseInfo(v.str);
  EXPECT_EQ("on", info["Workload"]["workload_analytics"]);
  EXPECT_EQ("72", info["Workload"]["workload_total_accesses"]);
  EXPECT_EQ("key=hot,est=40", info["Workload"]["workload_hotkey_0"]);

  // RESET drops trackers and sketch alike.
  ASSERT_TRUE(client.Call({"ANALYTICS", "RESET"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(client.Call({"ANALYTICS", "MRC"}, &v).ok());
  report = ParseInfo(v.str)[""];
  EXPECT_EQ("0", report["tracked_keys"]);
  ASSERT_TRUE(client.Call({"HOTKEYS"}, &v).ok());
  ASSERT_EQ(RespType::kArray, v.type);
  EXPECT_TRUE(v.elements.empty());
}

TEST_F(ServerTest, AnalyticsDisabledOverWire) {
  analytics_options_.enabled = false;
  StartServer();
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  RespValue v;
  // Serving is unaffected; the observatory commands fail clean.
  ASSERT_TRUE(client.Call({"SET", "k", "v"}, &v).ok());
  ASSERT_TRUE(client.Call({"GET", "k"}, &v).ok());
  EXPECT_EQ("v", v.str);
  ASSERT_TRUE(client.Call({"ANALYTICS", "MRC"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_NE(std::string::npos, v.str.find("analytics disabled"));
  ASSERT_TRUE(client.Call({"HOTKEYS"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_NE(std::string::npos, v.str.find("analytics disabled"));
  ASSERT_TRUE(client.Call({"INFO"}, &v).ok());
  auto info = ParseInfo(v.str);
  EXPECT_EQ("off", info["Workload"]["workload_analytics"]);
}

}  // namespace
}  // namespace server
}  // namespace tierbase
