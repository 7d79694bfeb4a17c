#include "agents/portal.hpp"

#include "agents/request.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {

Portal::Portal(sim::Engine& engine, sim::Network& network,
               const pace::ApplicationCatalogue& catalogue,
               metrics::MetricsCollector* collector, bool reliable)
    : engine_(engine),
      network_(network),
      catalogue_(catalogue),
      collector_(collector),
      link_(engine, network, reliable) {
  endpoint_ = network_.register_endpoint(
      [this](const sim::Message& message) { on_message(message); });
  link_.set_self(endpoint_);
}

TaskId Portal::submit(Agent& entry, const std::string& app_name,
                      SimTime deadline, const std::string& environment,
                      const std::string& email) {
  GRIDLB_REQUIRE(catalogue_.find(app_name) != nullptr,
                 "unknown application: " + app_name);
  GRIDLB_REQUIRE(deadline >= engine_.now(),
                 "deadline lies before submission time");

  submissions_.emplace_back(app_name, deadline, environment, email);
  const TaskId task(submissions_.size());

  if (collector_ != nullptr) collector_->on_submission(engine_.now());
  // Live arrival counter for the continuous sampler; the end-of-run
  // `portal.requests_submitted` total stays authoritative.
  if (auto* reg = obs::registry()) reg->counter("flow.submitted").add(1);
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kRequestSubmitted,
             .task = task.value(),
             .resource = entry.id().value(),
             .a = deadline});
  send_request(make_request(task, submissions_.back(), endpoint_),
               entry.endpoint());
  return task;
}

void Portal::resubmit(TaskId task) {
  const auto value = static_cast<std::size_t>(task.value());
  GRIDLB_REQUIRE(value >= 1 && value <= submissions_.size(),
                 "resubmit of a task never submitted: " + task.str());
  GRIDLB_REQUIRE(fallback_ != nullptr,
                 "resubmission needs a fallback entry agent");
  const Submission& original = submissions_[value - 1];

  // Same task id — the stranded submission never executed, so this is a
  // re-discovery, not a new task (the collector saw the submission once).
  ++resubmitted_;
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kTaskResubmitted,
             .task = task.value(),
             .resource = fallback_->id().value(),
             .a = original.deadline});
  log::warn("portal t=", engine_.now(), " resubmitting task ", task.str(),
            " through ", fallback_->name());
  send_request(make_request(task, original, endpoint_),
               fallback_->endpoint());
}

namespace {

/// `prefix`, `name` and `suffix` joined in one string, sized once.
std::string joined(std::string_view prefix, std::string_view name,
                   std::string_view suffix = {}) {
  std::string path;
  path.reserve(prefix.size() + name.size() + suffix.size());
  path.append(prefix).append(name).append(suffix);
  return path;
}

}  // namespace

Request make_request(TaskId task, const Submission& submission,
                     sim::EndpointId origin) {
  Request request;
  request.task = task;
  request.app_name = submission.app_name;
  request.binary_file = joined("/gridlb/binary/", submission.app_name);
  request.input_file =
      joined("/gridlb/binary/", submission.app_name, ".input");
  request.model_name = joined("/gridlb/model/", submission.app_name);
  request.environment = submission.environment;
  request.deadline = submission.deadline;
  request.email = submission.email;
  request.origin = origin;
  return request;
}

void Portal::send_request(const Request& request, sim::EndpointId to) {
  const TaskId task = request.task;
  link_.send(to, to_xml(request),
             [this, task](sim::EndpointId, const std::string&) {
               // Entry unreachable after the full retry budget: route the
               // task through the fallback instead of black-holing it.
               if (fallback_ != nullptr) resubmit(task);
             });
}

void Portal::on_message(const sim::Message& message) {
  // The root start tag is all the portal and its link read.
  const xml::Reader document(message.payload);
  if (link_.on_message(message, document) ==
      ReliableLink::Inbound::kConsumed) {
    return;
  }
  // The portal only ever receives result documents ("the task execution
  // results are sent directly back to the user").
  if (document.attribute("type") != "result") {
    log::warn("portal t=", engine_.now(), " ignoring unexpected ",
              message.payload.size(), "-byte message");
    return;
  }
  // The collector already holds the task's completion record.
  ++results_received_;
}

}  // namespace gridlb::agents
