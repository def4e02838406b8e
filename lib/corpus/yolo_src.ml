(** Hand-written YOLO-style object-detection C sources, embedded as
    strings and executed by the {!Coverage} interpreter.

    These play the role of Apollo's object-detection (Darknet/YOLO) code
    in the Figure 5 experiment: the "real-scenario tests" in {!driver}
    exercise the inference path the way Apollo's tests do — which leaves
    error handling, unused activation kinds, unused GEMM transpose modes
    and most config-parsing options unexecuted.  That test/coverage gap is
    exactly the paper's Observation 10.

    The network is tiny (6x6 input) so interpretation is fast; coverage
    ratios do not depend on tensor sizes. *)

let extra_types =
  [ "box"; "detection"; "layer"; "network" ]

(* ------------------------------------------------------------------ *)

let activations_c =
  {|// activations.c
enum ActivationType { LINEAR, LOGISTIC, RELU, LEAKY, TANH_A, ELU };

float activate_scalar(float x, int a) {
  switch (a) {
    case LINEAR:
      return x;
    case LOGISTIC:
      return 1.0 / (1.0 + exp(0.0 - x));
    case RELU:
      if (x > 0.0) {
        return x;
      }
      return 0.0;
    case LEAKY:
      if (x > 0.0) {
        return x;
      }
      return 0.1 * x;
    case TANH_A:
      return tanh(x);
    case ELU:
      if (x >= 0.0) {
        return x;
      }
      return exp(x) - 1.0;
    default:
      return x;
  }
}

float gradient_scalar(float x, int a) {
  switch (a) {
    case LINEAR:
      return 1.0;
    case LOGISTIC:
      return (1.0 - x) * x;
    case RELU:
      if (x > 0.0) {
        return 1.0;
      }
      return 0.0;
    case LEAKY:
      if (x > 0.0) {
        return 1.0;
      }
      return 0.1;
    default:
      return 1.0;
  }
}

void activate_array(float* x, int n, int a) {
  for (int i = 0; i < n; ++i) {
    x[i] = activate_scalar(x[i], a);
  }
}
|}

let gemm_c =
  {|// gemm.c
void gemm_nn(int m, int n, int k, float alpha, float* a, int lda,
             float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      float part = alpha * a[i * lda + p];
      for (int j = 0; j < n; ++j) {
        c[i * ldc + j] += part * b[p * ldb + j];
      }
    }
  }
}

void gemm_nt(int m, int n, int k, float alpha, float* a, int lda,
             float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float sum = 0.0;
      for (int p = 0; p < k; ++p) {
        sum += alpha * a[i * lda + p] * b[j * ldb + p];
      }
      c[i * ldc + j] += sum;
    }
  }
}

void gemm_tn(int m, int n, int k, float alpha, float* a, int lda,
             float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      float part = alpha * a[p * lda + i];
      for (int j = 0; j < n; ++j) {
        c[i * ldc + j] += part * b[p * ldb + j];
      }
    }
  }
}

void gemm_cpu(int ta, int tb, int m, int n, int k, float alpha, float* a,
              int lda, float* b, int ldb, float beta, float* c, int ldc) {
  if (beta != 1.0) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        c[i * ldc + j] *= beta;
      }
    }
  }
  if (ta == 0 && tb == 0) {
    gemm_nn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    if (ta == 1 && tb == 0) {
      gemm_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
      gemm_nt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
  }
}
|}

let im2col_c =
  {|// im2col.c
float im2col_get_pixel(float* im, int height, int width, int row, int col,
                       int channel, int pad) {
  row = row - pad;
  col = col - pad;
  if (row < 0 || col < 0 || row >= height || col >= width) {
    return 0.0;
  }
  return im[col + width * (row + height * channel)];
}

void im2col_cpu(float* data_im, int channels, int height, int width,
                int ksize, int stride, int pad, float* data_col) {
  int height_col = (height + 2 * pad - ksize) / stride + 1;
  int width_col = (width + 2 * pad - ksize) / stride + 1;
  int channels_col = channels * ksize * ksize;
  for (int c = 0; c < channels_col; ++c) {
    int w_offset = c % ksize;
    int h_offset = (c / ksize) % ksize;
    int c_im = c / ksize / ksize;
    for (int h = 0; h < height_col; ++h) {
      for (int w = 0; w < width_col; ++w) {
        int im_row = h_offset + h * stride;
        int im_col = w_offset + w * stride;
        int col_index = (c * height_col + h) * width_col + w;
        data_col[col_index] =
            im2col_get_pixel(data_im, height, width, im_row, im_col, c_im, pad);
      }
    }
  }
}
|}

let blas_c =
  {|// blas.c
void fill_cpu(int n, float alpha, float* x, int incx) {
  if (incx == 1) {
    for (int i = 0; i < n; ++i) {
      x[i] = alpha;
    }
  } else {
    for (int i = 0; i < n; ++i) {
      x[i * incx] = alpha;
    }
  }
}

void copy_cpu(int n, float* x, float* y) {
  for (int i = 0; i < n; ++i) {
    y[i] = x[i];
  }
}

void axpy_cpu(int n, float alpha, float* x, float* y) {
  for (int i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void scal_cpu(int n, float alpha, float* x) {
  for (int i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

void add_bias(float* output, float* biases, int n, int size) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < size; ++j) {
      output[i * size + j] += biases[i];
    }
  }
}

void softmax_cpu(float* input, int n, float temp, float* output) {
  float largest = input[0];
  for (int i = 1; i < n; ++i) {
    if (input[i] > largest) {
      largest = input[i];
    }
  }
  float sum = 0.0;
  for (int i = 0; i < n; ++i) {
    float e = 0.0;
    if (temp != 1.0) {
      e = exp(input[i] / temp - largest / temp);
    } else {
      e = exp(input[i] - largest);
    }
    sum += e;
    output[i] = e;
  }
  for (int i = 0; i < n; ++i) {
    output[i] /= sum;
  }
}
|}

let box_c =
  {|// box.c
struct box {
  float x;
  float y;
  float w;
  float h;
};

struct detection {
  box bbox;
  float objectness;
  int cls;
  float prob0;
  float prob1;
};

float overlap_1d(float x1, float w1, float x2, float w2) {
  float l1 = x1 - w1 / 2.0;
  float l2 = x2 - w2 / 2.0;
  float left = l2;
  if (l1 > l2) {
    left = l1;
  }
  float r1 = x1 + w1 / 2.0;
  float r2 = x2 + w2 / 2.0;
  float right = r2;
  if (r1 < r2) {
    right = r1;
  }
  return right - left;
}

float box_intersection(box* a, box* b) {
  float w = overlap_1d(a->x, a->w, b->x, b->w);
  float h = overlap_1d(a->y, a->h, b->y, b->h);
  if (w < 0.0 || h < 0.0) {
    return 0.0;
  }
  return w * h;
}

float box_union_area(box* a, box* b) {
  float i = box_intersection(a, b);
  return a->w * a->h + b->w * b->h - i;
}

float box_iou(box* a, box* b) {
  float u = box_union_area(a, b);
  if (u <= 0.0) {
    return 0.0;
  }
  return box_intersection(a, b) / u;
}

void do_nms(detection* dets, int total, float thresh) {
  for (int i = 0; i < total; ++i) {
    if (dets[i].objectness <= 0.0) {
      continue;
    }
    for (int j = i + 1; j < total; ++j) {
      float iou = box_iou(&dets[i].bbox, &dets[j].bbox);
      if (iou > thresh && dets[j].objectness > 0.0) {
        dets[j].objectness = 0.0;
      }
    }
  }
}
|}

let convolutional_c =
  {|// convolutional_layer.c
layer make_convolutional_layer(int c, int h, int w, int n, int ksize,
                               int stride, int pad, int activation) {
  layer l;
  l.ltype = 0;
  if (c <= 0 || n <= 0 || ksize <= 0) {
    l.out_c = 0;
    return l;
  }
  l.in_c = c;
  l.in_h = h;
  l.in_w = w;
  l.out_c = n;
  l.ksize = ksize;
  l.stride = stride;
  l.pad = pad;
  l.activation = activation;
  l.out_h = (h + 2 * pad - ksize) / stride + 1;
  l.out_w = (w + 2 * pad - ksize) / stride + 1;
  int weight_count = n * c * ksize * ksize;
  l.weights = (float*)malloc(weight_count * sizeof(float));
  l.biases = (float*)malloc(n * sizeof(float));
  l.output = (float*)malloc(n * l.out_h * l.out_w * sizeof(float));
  l.workspace = (float*)malloc(c * ksize * ksize * l.out_h * l.out_w * sizeof(float));
  for (int i = 0; i < weight_count; ++i) {
    l.weights[i] = 0.01 * (float)(i % 11) - 0.05;
  }
  for (int i = 0; i < n; ++i) {
    l.biases[i] = 0.1 * (float)(i % 3);
  }
  return l;
}

void forward_convolutional_layer(layer* l, float* input) {
  int m = l->out_c;
  int k = l->in_c * l->ksize * l->ksize;
  int n = l->out_h * l->out_w;
  fill_cpu(m * n, 0.0, l->output, 1);
  if (l->ksize == 1 && l->stride == 1) {
    gemm_cpu(0, 0, m, n, k, 1.0, l->weights, k, input, n, 1.0, l->output, n);
  } else {
    im2col_cpu(input, l->in_c, l->in_h, l->in_w, l->ksize, l->stride, l->pad,
               l->workspace);
    gemm_cpu(0, 0, m, n, k, 1.0, l->weights, k, l->workspace, n, 1.0,
             l->output, n);
  }
  add_bias(l->output, l->biases, m, n);
  activate_array(l->output, m * n, l->activation);
}
|}

let maxpool_c =
  {|// maxpool_layer.c
layer make_maxpool_layer(int c, int h, int w, int size, int stride) {
  layer l;
  l.ltype = 1;
  l.in_c = c;
  l.in_h = h;
  l.in_w = w;
  l.ksize = size;
  l.stride = stride;
  l.pad = 0;
  l.out_c = c;
  l.out_h = (h - size) / stride + 1;
  l.out_w = (w - size) / stride + 1;
  l.output = (float*)malloc(c * l.out_h * l.out_w * sizeof(float));
  return l;
}

void forward_maxpool_layer(layer* l, float* input) {
  for (int c = 0; c < l->out_c; ++c) {
    for (int i = 0; i < l->out_h; ++i) {
      for (int j = 0; j < l->out_w; ++j) {
        float best = 0.0 - 1000000.0;
        for (int n = 0; n < l->ksize; ++n) {
          for (int m = 0; m < l->ksize; ++m) {
            int row = i * l->stride + n;
            int col = j * l->stride + m;
            if (row >= 0 && row < l->in_h && col >= 0 && col < l->in_w) {
              float v = input[col + l->in_w * (row + l->in_h * c)];
              if (v > best) {
                best = v;
              }
            }
          }
        }
        l->output[j + l->out_w * (i + l->out_h * c)] = best;
      }
    }
  }
}
|}

let region_c =
  {|// region_layer.c
layer make_region_layer(int side, int n_anchors, int classes) {
  layer l;
  l.ltype = 2;
  l.in_h = side;
  l.in_w = side;
  l.n_anchors = n_anchors;
  l.classes = classes;
  l.out_h = side;
  l.out_w = side;
  l.out_c = n_anchors * (classes + 5);
  l.output = (float*)malloc(side * side * l.out_c * sizeof(float));
  return l;
}

int entry_index(layer* l, int anchor, int cell, int entry) {
  int per_anchor = l->classes + 5;
  return anchor * l->out_h * l->out_w * per_anchor + entry * l->out_h * l->out_w + cell;
}

void forward_region_layer(layer* l, float* input, int use_softmax) {
  int cells = l->out_h * l->out_w;
  int total = cells * l->n_anchors * (l->classes + 5);
  copy_cpu(total, input, l->output);
  for (int a = 0; a < l->n_anchors; ++a) {
    for (int cell = 0; cell < cells; ++cell) {
      int obj_index = entry_index(l, a, cell, 4);
      l->output[obj_index] = activate_scalar(l->output[obj_index], LOGISTIC);
      if (use_softmax == 1) {
        int class_index = entry_index(l, a, cell, 5);
        softmax_cpu(l->output + class_index, l->classes, 1.0,
                    l->output + class_index);
      } else {
        for (int k = 0; k < l->classes; ++k) {
          int ci = entry_index(l, a, cell, 5 + k);
          l->output[ci] = activate_scalar(l->output[ci], LOGISTIC);
        }
      }
    }
  }
}

int get_region_detections(layer* l, float thresh, detection* dets) {
  int cells = l->out_h * l->out_w;
  int count = 0;
  for (int a = 0; a < l->n_anchors; ++a) {
    for (int cell = 0; cell < cells; ++cell) {
      int obj_index = entry_index(l, a, cell, 4);
      float objectness = l->output[obj_index];
      if (objectness > thresh) {
        dets[count].objectness = objectness;
        dets[count].bbox.x = (float)(cell % l->out_w) + 0.5;
        dets[count].bbox.y = (float)(cell / l->out_w) + 0.5;
        dets[count].bbox.w = 1.4;
        dets[count].bbox.h = 1.2;
        dets[count].cls = 0;
        count = count + 1;
      }
    }
  }
  return count;
}
|}

let network_c =
  {|// network.c
struct layer {
  int ltype;
  int batch;
  int in_c;
  int in_h;
  int in_w;
  int out_c;
  int out_h;
  int out_w;
  int ksize;
  int stride;
  int pad;
  int activation;
  int n_anchors;
  int classes;
  float* weights;
  float* biases;
  float* output;
  float* workspace;
};

struct network {
  int n;
  int in_c;
  int in_h;
  int in_w;
  int train;
  layer layers[8];
};

float* forward_network(network* net, float* input) {
  float* current = input;
  for (int i = 0; i < net->n; ++i) {
    layer* l = &net->layers[i];
    switch (l->ltype) {
      case 0:
        forward_convolutional_layer(l, current);
        break;
      case 1:
        forward_maxpool_layer(l, current);
        break;
      case 2:
        forward_region_layer(l, current, 0);
        break;
      case 3:
        fill_cpu(l->out_c, 0.0, l->output, 1);
        break;
      case 4:
        softmax_cpu(current, l->out_c, 1.0, l->output);
        break;
      default:
        break;
    }
    if (net->train == 1) {
      scal_cpu(l->out_c * l->out_h * l->out_w, 0.99, l->output);
    }
    current = l->output;
  }
  return current;
}
|}

let parser_cfg_c =
  {|// parser_cfg.c — network-config option handling
int parse_option_value(int key, int fallback) {
  switch (key) {
    case 0:
      return 416;
    case 1:
      return 416;
    case 2:
      return 3;
    case 3:
      return 16;
    case 4:
      return 32;
    case 5:
      return 64;
    case 6:
      return 5;
    case 7:
      return 80;
    case 8:
      return 1;
    case 9:
      return 2;
    case 10:
      return 8;
    case 11:
      return 100;
    default:
      return fallback;
  }
}

float parse_learning_param(int schedule, int step) {
  float rate = 0.001;
  if (schedule == 0) {
    return rate;
  }
  if (schedule == 1) {
    return rate / (1.0 + 0.0001 * (float)step);
  }
  if (schedule == 2) {
    float scaled = rate;
    for (int i = 0; i < step / 100; ++i) {
      scaled *= 0.1;
    }
    return scaled;
  }
  if (schedule == 3) {
    return rate * exp(0.0 - 0.0001 * (float)step);
  }
  return rate;
}

int validate_config(int width, int height, int channels, int batch) {
  if (width <= 0 || height <= 0) {
    return 0;
  }
  if (channels <= 0) {
    return 0;
  }
  if (batch <= 0 || batch > 1024) {
    return 0;
  }
  if (width % 32 != 0 && height % 32 != 0) {
    return 2;
  }
  return 1;
}
|}

let driver_c =
  {|// test_main.c — the "real-scenario tests" of the Figure 5 experiment
int scenario_forward_inference() {
  network net;
  net.n = 3;
  net.in_c = 3;
  net.in_h = 6;
  net.in_w = 6;
  net.train = 0;
  net.layers[0] = make_convolutional_layer(3, 6, 6, 7, 3, 1, 1, LEAKY);
  net.layers[1] = make_maxpool_layer(7, 6, 6, 2, 2);
  net.layers[2] = make_region_layer(3, 1, 2);
  float* input = (float*)malloc(3 * 6 * 6 * sizeof(float));
  for (int i = 0; i < 3 * 6 * 6; ++i) {
    input[i] = 0.3 * (float)(i % 7) - 0.8;
  }
  float* out = forward_network(&net, input);
  float checksum = 0.0;
  for (int i = 0; i < 9; ++i) {
    checksum += out[i];
  }
  printf("scenario1 checksum %f\n", checksum);
  free(input);
  return 1;
}

int scenario_detection_nms() {
  layer l = make_region_layer(3, 1, 2);
  int total = 3 * 3 * 1 * 7;
  float* input = (float*)malloc(total * sizeof(float));
  for (int i = 0; i < total; ++i) {
    input[i] = 0.25 * (float)(i % 9) - 1.0;
  }
  forward_region_layer(&l, input, 0);
  detection* dets = (detection*)malloc(16 * sizeof(detection));
  int count = get_region_detections(&l, 0.4, dets);
  if (count > 1) {
    do_nms(dets, count, 0.3);
  }
  int kept = 0;
  for (int i = 0; i < count; ++i) {
    if (dets[i].objectness > 0.0) {
      kept = kept + 1;
    }
  }
  printf("scenario2 detections %d kept %d\n", count, kept);
  free(input);
  free(dets);
  return kept;
}

int scenario_config_check() {
  int width = parse_option_value(0, -1);
  int channels = parse_option_value(2, -1);
  int ok = validate_config(width, width, channels, 16);
  int bad = validate_config(width, width, 0, 16);
  float rate = parse_learning_param(0, 0);
  printf("config ok %d bad %d rate %f\n", ok, bad, rate);
  return ok;
}

int scenario_small_head() {
  network net;
  net.n = 2;
  net.in_c = 7;
  net.in_h = 3;
  net.in_w = 3;
  net.train = 0;
  net.layers[0] = make_convolutional_layer(7, 3, 3, 4, 1, 1, 0, RELU);
  net.layers[1].ltype = 4;
  net.layers[1].out_c = 4;
  net.layers[1].out_h = 1;
  net.layers[1].out_w = 1;
  net.layers[1].output = (float*)malloc(4 * sizeof(float));
  float* input = (float*)malloc(7 * 3 * 3 * sizeof(float));
  for (int i = 0; i < 7 * 3 * 3; ++i) {
    input[i] = 0.2 * (float)(i % 5) - 0.4;
  }
  float* probs = forward_network(&net, input);
  float peak = probs[0];
  for (int i = 1; i < 4; ++i) {
    peak = fmax(peak, probs[i]);
  }
  printf("head peak %f\n", peak);
  free(input);
  return 1;
}

int scenario_kernel_paths() {
  float* a = (float*)malloc(4 * sizeof(float));
  float* b = (float*)malloc(4 * sizeof(float));
  float* c = (float*)malloc(4 * sizeof(float));
  for (int i = 0; i < 4; ++i) {
    a[i] = 0.5 * (float)i;
    b[i] = 1.0 - 0.25 * (float)i;
    c[i] = 1.0;
  }
  gemm_cpu(1, 0, 2, 2, 2, 1.0, a, 2, b, 2, 0.5, c, 2);
  activate_array(a, 4, RELU);
  float t = activate_scalar(0.3, TANH_A);
  softmax_cpu(b, 4, 2.0, b);
  printf("paths %f %f %f\n", c[0], a[1], t);
  free(a);
  free(b);
  free(c);
  return 1;
}

int main() {
  int passed = 0;
  passed += scenario_forward_inference();
  passed += scenario_detection_nms();
  passed += scenario_config_check();
  passed += scenario_small_head();
  passed += scenario_kernel_paths();
  printf("passed %d\n", passed);
  return passed;
}
|}

(** Files in dependency-friendly order; [network_c] defines the structs,
    so it parses first for layout registration (the interpreter loads all
    units before running). *)
let files =
  [
    ("yolo/network.c", network_c);
    ("yolo/box.c", box_c);
    ("yolo/activations.c", activations_c);
    ("yolo/gemm.c", gemm_c);
    ("yolo/im2col.c", im2col_c);
    ("yolo/blas.c", blas_c);
    ("yolo/convolutional_layer.c", convolutional_c);
    ("yolo/maxpool_layer.c", maxpool_c);
    ("yolo/region_layer.c", region_c);
    ("yolo/parser_cfg.c", parser_cfg_c);
    ("yolo/test_main.c", driver_c);
  ]

let parse_all () = Cfront.Parser.parse_files ~extra_types files

(** Translation units under measurement (the driver itself is excluded
    from the coverage report, like a test harness would be). *)
let measured_files = List.filter (fun (p, _) -> p <> "yolo/test_main.c") files

let entry = "main"

(** The driver's per-test entry points, in [main]'s call order.  Each is
    a self-contained "real-scenario test" (its own network, buffers and
    teardown), so they can run as independent scenarios; [main] remains
    the monolithic form and the golden reference for their combined
    coverage. *)
let scenario_entries =
  [
    "scenario_forward_inference";
    "scenario_detection_nms";
    "scenario_config_check";
    "scenario_small_head";
    "scenario_kernel_paths";
  ]
