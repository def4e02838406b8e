(** A runnable miniature of the Figure 1 AD pipeline, in C, executed by
    the interpreter: synthetic sensor grid -> perception (detection on an
    occupancy grid) -> prediction (constant-velocity extrapolation) ->
    planning (corridor selection with collision cost) -> control (PD
    steering/speed commands) -> CAN frame packing.

    It serves as a second integration subject beyond YOLO: richer control
    flow across five cooperating translation units, a deterministic
    multi-tick simulation, and a safety property the tests can check (the
    planned corridor never intersects a predicted obstacle cell). *)

let extra_types = [ "obstacle"; "plan_result"; "control_cmd" ]

let types_c =
  {|// pipeline_types.c
struct obstacle {
  int cell_x;
  int cell_y;
  float vel_x;
  float vel_y;
  int tracked;
};

struct plan_result {
  int corridor;
  float cost;
  int feasible;
};

struct control_cmd {
  float steer;
  float accel;
  int brake;
};

int g_frame_counter = 0;
|}

let perception_c =
  {|// mini_perception.c
int DetectObstacles(float* grid, int width, int height, float threshold,
                    obstacle* out, int max_out) {
  int count = 0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      float v = grid[y * width + x];
      if (v > threshold && count < max_out) {
        out[count].cell_x = x;
        out[count].cell_y = y;
        out[count].vel_x = 0.0;
        out[count].vel_y = 0.0;
        out[count].tracked = 0;
        count = count + 1;
      }
    }
  }
  return count;
}

void TrackObstacles(obstacle* prev, int prev_count, obstacle* cur, int cur_count) {
  for (int i = 0; i < cur_count; ++i) {
    int best = -1;
    int best_dist = 1000000;
    for (int j = 0; j < prev_count; ++j) {
      int dx = cur[i].cell_x - prev[j].cell_x;
      int dy = cur[i].cell_y - prev[j].cell_y;
      int d2 = dx * dx + dy * dy;
      if (d2 < best_dist && d2 <= 4) {
        best_dist = d2;
        best = j;
      }
    }
    if (best >= 0) {
      cur[i].vel_x = (float)(cur[i].cell_x - prev[best].cell_x);
      cur[i].vel_y = (float)(cur[i].cell_y - prev[best].cell_y);
      cur[i].tracked = 1;
    }
  }
}
|}

let prediction_c =
  {|// mini_prediction.c
void PredictObstacles(obstacle* obs, int count, int horizon, int* occupied,
                      int width, int height) {
  for (int i = 0; i < width * height; ++i) {
    occupied[i] = 0;
  }
  for (int i = 0; i < count; ++i) {
    for (int t = 0; t <= horizon; ++t) {
      int px = obs[i].cell_x + (int)(obs[i].vel_x * (float)t);
      int py = obs[i].cell_y + (int)(obs[i].vel_y * (float)t);
      if (px >= 0 && px < width && py >= 0 && py < height) {
        occupied[py * width + px] = 1;
      }
    }
  }
}
|}

let planning_c =
  {|// mini_planning.c
float CorridorCost(int* occupied, int width, int height, int corridor) {
  float cost = 0.0;
  for (int y = 0; y < height; ++y) {
    if (occupied[y * width + corridor] == 1) {
      cost += 100.0;
    }
    int left = corridor - 1;
    int right = corridor + 1;
    if (left >= 0 && occupied[y * width + left] == 1) {
      cost += 10.0;
    }
    if (right < width && occupied[y * width + right] == 1) {
      cost += 10.0;
    }
  }
  return cost;
}

plan_result PlanCorridor(int* occupied, int width, int height, int current) {
  plan_result result;
  result.corridor = current;
  result.cost = 1000000.0;
  result.feasible = 0;
  for (int c = 0; c < width; ++c) {
    float cost = CorridorCost(occupied, width, height, c);
    float switch_penalty = 2.0 * (float)abs(c - current);
    float total = cost + switch_penalty;
    if (total < result.cost) {
      result.cost = total;
      result.corridor = c;
    }
  }
  if (result.cost < 100.0) {
    result.feasible = 1;
  }
  return result;
}
|}

let control_c =
  {|// mini_control.c
control_cmd ComputeControl(int current, plan_result* plan, float speed,
                           float target_speed) {
  control_cmd cmd;
  cmd.steer = 0.0;
  cmd.accel = 0.0;
  cmd.brake = 0;
  if (plan->feasible == 0) {
    cmd.brake = 1;
    return cmd;
  }
  float err = (float)(plan->corridor - current);
  cmd.steer = 0.4 * err;
  if (cmd.steer > 1.0) {
    cmd.steer = 1.0;
  }
  if (cmd.steer < 0.0 - 1.0) {
    cmd.steer = 0.0 - 1.0;
  }
  float spd_err = target_speed - speed;
  cmd.accel = 0.2 * spd_err;
  return cmd;
}

int PackCanFrame(control_cmd* cmd, int* frame) {
  frame[0] = (int)(cmd->steer * 100.0);
  frame[1] = (int)(cmd->accel * 100.0);
  frame[2] = cmd->brake;
  int checksum = frame[0] + frame[1] + frame[2];
  frame[3] = checksum;
  return checksum;
}
|}

let driver_c =
  {|// mini_main.c — a deterministic multi-tick closed-loop run
int RunPipelineTicks(int ticks) {
  int width = 7;
  int height = 9;
  float* grid = (float*)malloc(width * height * sizeof(float));
  int* occupied = (int*)malloc(width * height * sizeof(int));
  obstacle* prev = (obstacle*)malloc(8 * sizeof(obstacle));
  obstacle* cur = (obstacle*)malloc(8 * sizeof(obstacle));
  int prev_count = 0;
  int* frame = (int*)malloc(4 * sizeof(int));
  int corridor = 3;
  float speed = 2.0;
  int collisions = 0;
  int braked = 0;
  for (int tick = 0; tick < ticks; ++tick) {
    g_frame_counter = g_frame_counter + 1;
    for (int i = 0; i < width * height; ++i) {
      grid[i] = 0.0;
    }
    int ox = (tick * 2) % width;
    grid[2 * width + ox] = 0.9;
    grid[5 * width + ((ox + 3) % width)] = 0.8;
    int count = DetectObstacles(grid, width, height, 0.5, cur, 8);
    TrackObstacles(prev, prev_count, cur, count);
    PredictObstacles(cur, count, 2, occupied, width, height);
    plan_result plan = PlanCorridor(occupied, width, height, corridor);
    control_cmd cmd = ComputeControl(corridor, &plan, speed, 3.0);
    if (cmd.brake == 1) {
      braked = braked + 1;
    } else {
      corridor = plan.corridor;
      speed = speed + cmd.accel;
    }
    if (occupied[4 * width + corridor] == 1) {
      collisions = collisions + 1;
    }
    PackCanFrame(&cmd, frame);
    for (int i = 0; i < count; ++i) {
      prev[i] = cur[i];
    }
    prev_count = count;
  }
  printf("ticks=%d collisions=%d braked=%d corridor=%d\n", ticks, collisions,
         braked, corridor);
  free(grid);
  free(occupied);
  free(prev);
  free(cur);
  free(frame);
  return collisions;
}

int main() {
  return RunPipelineTicks(12);
}
|}

let files =
  [
    ("mini/pipeline_types.c", types_c);
    ("mini/mini_perception.c", perception_c);
    ("mini/mini_prediction.c", prediction_c);
    ("mini/mini_planning.c", planning_c);
    ("mini/mini_control.c", control_c);
    ("mini/mini_main.c", driver_c);
  ]

let parse_all () = Cfront.Parser.parse_files ~extra_types files

let measured_files = List.filter (fun (p, _) -> p <> "mini/mini_main.c") files

let entry = "main"
